//! Deterministic chaos schedules: seeded generation, serialization, and
//! shrinking (DESIGN.md §13).
//!
//! A [`ChaosPlan`] is a small list of [`ChaosEvent`]s — agent crashes,
//! link flaps, driver latency spikes, control-frame drops/delays, channel
//! severance, controller crashes — generated deterministically from a
//! seed. The bench harness lowers a plan onto two scenarios:
//!
//! * **fabric** events ([`ChaosEvent::Crash`], [`ChaosEvent::Flap`],
//!   [`ChaosEvent::Delay`]) run against the leaf-spine failover fabric;
//! * **mastership** events ([`ChaosEvent::Drop`], [`ChaosEvent::ChDelay`],
//!   [`ChaosEvent::Sever`], [`ChaosEvent::CtlCrash`]) run against a
//!   dual-controller lease-arbitration scenario.
//!
//! Both are checked against invariant oracles; when a seed fails, the
//! [`shrink`] pass minimizes its schedule — first by removing event
//! subsets (ddmin-style bisection), then by shrinking each surviving
//! event's numeric parameters — down to a smallest still-failing repro
//! that serializes into `tests/chaos_corpus/` as a regression file.

use crate::{FaultEffect, FaultOp, FaultPlan, FaultRule, FaultWindow, Nanos, SplitMix64};
use std::fmt;

/// One scheduled chaos event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Kill fabric switch `switch`'s agent at its `at_op`-th driver op.
    Crash { switch: u16, at_op: u64 },
    /// Flap a fabric link: down at `down_ns`, back up at `up_ns`.
    Flap {
        switch: u32,
        port: u32,
        down_ns: Nanos,
        up_ns: Nanos,
    },
    /// Multiply switch `switch`'s driver-op latency by
    /// `factor_milli/1000` inside the virtual-time window.
    Delay {
        switch: u16,
        from_ns: Nanos,
        to_ns: Nanos,
        factor_milli: u32,
    },
    /// Drop `count` control-channel frames starting at frame `from_op`.
    Drop { from_op: u64, count: u32 },
    /// Delay control-channel frames inside the window.
    ChDelay {
        from_ns: Nanos,
        to_ns: Nanos,
        factor_milli: u32,
    },
    /// Sever the primary controller's channel from `at_ns` onward — the
    /// persistent partition that expires its lease and forces a standby
    /// failover.
    Sever { at_ns: Nanos },
    /// Kill the primary controller process at its `at_op`-th channel op.
    CtlCrash { at_op: u64 },
}

impl ChaosEvent {
    /// Does this event lower onto the leaf-spine fabric scenario?
    pub fn is_fabric(&self) -> bool {
        matches!(
            self,
            ChaosEvent::Crash { .. } | ChaosEvent::Flap { .. } | ChaosEvent::Delay { .. }
        )
    }

    /// Does this event lower onto the dual-controller mastership
    /// scenario?
    pub fn is_control(&self) -> bool {
        !self.is_fabric()
    }
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosEvent::Crash { switch, at_op } => {
                write!(f, "crash switch={switch} at_op={at_op}")
            }
            ChaosEvent::Flap {
                switch,
                port,
                down_ns,
                up_ns,
            } => write!(
                f,
                "flap switch={switch} port={port} down={down_ns} up={up_ns}"
            ),
            ChaosEvent::Delay {
                switch,
                from_ns,
                to_ns,
                factor_milli,
            } => write!(
                f,
                "delay switch={switch} from={from_ns} to={to_ns} factor={factor_milli}"
            ),
            ChaosEvent::Drop { from_op, count } => {
                write!(f, "drop from_op={from_op} count={count}")
            }
            ChaosEvent::ChDelay {
                from_ns,
                to_ns,
                factor_milli,
            } => write!(f, "chdelay from={from_ns} to={to_ns} factor={factor_milli}"),
            ChaosEvent::Sever { at_ns } => write!(f, "sever at={at_ns}"),
            ChaosEvent::CtlCrash { at_op } => write!(f, "ctlcrash at_op={at_op}"),
        }
    }
}

/// A seeded chaos schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the schedule was generated from (0 for hand-written or
    /// shrunk plans; informational only — replay uses the events).
    pub seed: u64,
    pub events: Vec<ChaosEvent>,
}

/// Bounds for the seeded generator, describing the scenario the plan
/// will be lowered onto.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Fabric switches (leaves + spines) crashes and delays may target.
    pub switches: u16,
    /// Flappable ports (the fabric's inter-switch uplinks).
    pub ports: Vec<u32>,
    /// Virtual-time horizon of the run; time-windowed events land in
    /// `[horizon/8, 6·horizon/8)` so recovery has room to quiesce.
    pub horizon_ns: Nanos,
    /// Approximate driver ops one agent issues over the run; crash
    /// points are drawn from `[0, ops_hint)`.
    pub ops_hint: u64,
    /// Maximum events per schedule.
    pub max_events: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            switches: 4,
            ports: vec![8, 9],
            horizon_ns: 400_000,
            ops_hint: 120,
            max_events: 6,
        }
    }
}

impl ChaosPlan {
    /// Generate a seed-deterministic schedule within `cfg`'s bounds.
    /// At most one [`ChaosEvent::Crash`] per switch and one
    /// [`ChaosEvent::CtlCrash`]/[`ChaosEvent::Sever`] per plan, so a
    /// restarted process never re-arms its own crash rule.
    pub fn generate(seed: u64, cfg: &ChaosConfig) -> ChaosPlan {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + (rng.next() as usize) % cfg.max_events.max(1);
        let mut events = Vec::with_capacity(n);
        let mut crashed: Vec<u16> = Vec::new();
        let mut ctl_crashed = false;
        let mut severed = false;
        let span = cfg.horizon_ns.max(8);
        let window = |rng: &mut SplitMix64| {
            let lo = span / 8 + rng.next() % (span / 2);
            let len = span / 16 + rng.next() % (span / 4);
            (lo, lo + len)
        };
        for _ in 0..n {
            let ev = match rng.next() % 7 {
                0 => {
                    let switch = (rng.next() % u64::from(cfg.switches.max(1))) as u16;
                    if crashed.contains(&switch) {
                        continue;
                    }
                    crashed.push(switch);
                    ChaosEvent::Crash {
                        switch,
                        at_op: rng.next() % cfg.ops_hint.max(1),
                    }
                }
                1 => {
                    let port = cfg.ports[(rng.next() as usize) % cfg.ports.len().max(1)];
                    let (down_ns, up_ns) = window(&mut rng);
                    ChaosEvent::Flap {
                        switch: (rng.next() % u64::from(cfg.switches.max(1))) as u32,
                        port,
                        down_ns,
                        up_ns,
                    }
                }
                2 => {
                    let (from_ns, to_ns) = window(&mut rng);
                    ChaosEvent::Delay {
                        switch: (rng.next() % u64::from(cfg.switches.max(1))) as u16,
                        from_ns,
                        to_ns,
                        factor_milli: 1_500 + (rng.next() % 6_000) as u32,
                    }
                }
                3 => ChaosEvent::Drop {
                    from_op: rng.next() % cfg.ops_hint.max(1),
                    count: 1 + (rng.next() % 3) as u32,
                },
                4 => {
                    let (from_ns, to_ns) = window(&mut rng);
                    ChaosEvent::ChDelay {
                        from_ns,
                        to_ns,
                        factor_milli: 1_500 + (rng.next() % 4_000) as u32,
                    }
                }
                5 => {
                    if severed {
                        continue;
                    }
                    severed = true;
                    ChaosEvent::Sever {
                        at_ns: span / 8 + rng.next() % (span / 2),
                    }
                }
                _ => {
                    if ctl_crashed {
                        continue;
                    }
                    ctl_crashed = true;
                    ChaosEvent::CtlCrash {
                        at_op: rng.next() % cfg.ops_hint.max(1),
                    }
                }
            };
            events.push(ev);
        }
        ChaosPlan { seed, events }
    }

    /// Lower the fabric-scenario events onto a [`FaultPlan`] every fabric
    /// agent's driver installs (rules are switch-scoped, so each injector
    /// only fires its own switch's events). Link flaps ride along in
    /// `link_flaps` for `netsim::schedule_link_flaps`.
    pub fn fabric_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for ev in &self.events {
            match *ev {
                ChaosEvent::Crash { switch, at_op } => {
                    plan = plan.crash_at_op_on(switch, at_op);
                }
                ChaosEvent::Flap {
                    switch,
                    port,
                    down_ns,
                    up_ns,
                } => {
                    plan = plan.flap_on(switch, port, down_ns, up_ns);
                }
                ChaosEvent::Delay {
                    switch,
                    from_ns,
                    to_ns,
                    factor_milli,
                } => {
                    plan = plan.rule(
                        FaultRule::new(
                            FaultOp::Any,
                            FaultEffect::Delay { factor_milli },
                            FaultWindow::Time {
                                lo: from_ns,
                                hi: to_ns,
                            },
                            Some(4),
                        )
                        .on_switch(switch),
                    );
                }
                _ => {}
            }
        }
        plan
    }

    /// The fabric plan a *restarted* agent on `switch` installs: the same
    /// schedule minus every crash rule targeting it — a restarted process
    /// is a new process, so one [`ChaosEvent::Crash`] kills it once.
    pub fn restart_plan(&self, switch: u16) -> FaultPlan {
        let mut full = self.fabric_plan();
        full.rules
            .retain(|r| !(r.effect == FaultEffect::Crash && r.switch == Some(switch)));
        full
    }

    /// Lower the mastership-scenario events onto the fault plan installed
    /// on the *primary* controller (the standby stays clean so the
    /// single-master oracle watches a live failover target).
    pub fn control_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for ev in &self.events {
            match *ev {
                ChaosEvent::Drop { from_op, count } => {
                    plan = plan.fail_transient(
                        FaultOp::Control,
                        FaultWindow::Ops {
                            lo: from_op,
                            hi: from_op + u64::from(count) + 8,
                        },
                        count,
                    );
                }
                ChaosEvent::ChDelay {
                    from_ns,
                    to_ns,
                    factor_milli,
                } => {
                    plan = plan.delay(
                        FaultOp::Control,
                        FaultWindow::Time {
                            lo: from_ns,
                            hi: to_ns,
                        },
                        factor_milli,
                        4,
                    );
                }
                ChaosEvent::Sever { at_ns } => {
                    plan = plan.rule(FaultRule::new(
                        FaultOp::Control,
                        FaultEffect::Fail,
                        FaultWindow::Time {
                            lo: at_ns,
                            hi: Nanos::MAX,
                        },
                        None,
                    ));
                }
                ChaosEvent::CtlCrash { at_op } => {
                    plan = plan.rule(FaultRule::new(
                        FaultOp::Control,
                        FaultEffect::Crash,
                        FaultWindow::Ops {
                            lo: at_op,
                            hi: at_op + 1,
                        },
                        Some(1),
                    ));
                }
                _ => {}
            }
        }
        plan
    }

    /// Crash events by fabric switch, in schedule order.
    pub fn fabric_crashes(&self) -> Vec<(u16, u64)> {
        self.events
            .iter()
            .filter_map(|ev| match *ev {
                ChaosEvent::Crash { switch, at_op } => Some((switch, at_op)),
                _ => None,
            })
            .collect()
    }

    pub fn has_fabric_events(&self) -> bool {
        self.events.iter().any(|e| e.is_fabric())
    }

    pub fn has_control_events(&self) -> bool {
        self.events.iter().any(|e| e.is_control())
    }

    // -- serialization -------------------------------------------------------

    /// Serialize to the line-based corpus format (`# mantis chaos plan v1`).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# mantis chaos plan v1\n");
        out.push_str(&format!("seed {}\n", self.seed));
        for ev in &self.events {
            out.push_str(&format!("{ev}\n"));
        }
        out
    }

    /// Parse the corpus format. Blank lines and `#` comments are ignored.
    pub fn parse(text: &str) -> Result<ChaosPlan, ChaosParseError> {
        let mut plan = ChaosPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let head = parts.next().unwrap_or_default();
            let err = |what: &str| ChaosParseError {
                line: lineno + 1,
                what: what.to_string(),
            };
            let mut fields: Vec<(&str, &str)> = Vec::new();
            for p in parts {
                if head == "seed" {
                    fields.push(("seed", p));
                    continue;
                }
                let (k, v) = p.split_once('=').ok_or_else(|| err("expected key=value"))?;
                fields.push((k, v));
            }
            let get = |key: &str| -> Result<u64, ChaosParseError> {
                fields
                    .iter()
                    .find(|(k, _)| *k == key)
                    .ok_or_else(|| err(&format!("missing `{key}`")))
                    .and_then(|(_, v)| v.parse::<u64>().map_err(|_| err(&format!("bad `{key}`"))))
            };
            match head {
                "seed" => plan.seed = get("seed")?,
                "crash" => plan.events.push(ChaosEvent::Crash {
                    switch: get("switch")? as u16,
                    at_op: get("at_op")?,
                }),
                "flap" => plan.events.push(ChaosEvent::Flap {
                    switch: get("switch")? as u32,
                    port: get("port")? as u32,
                    down_ns: get("down")?,
                    up_ns: get("up")?,
                }),
                "delay" => plan.events.push(ChaosEvent::Delay {
                    switch: get("switch")? as u16,
                    from_ns: get("from")?,
                    to_ns: get("to")?,
                    factor_milli: get("factor")? as u32,
                }),
                "drop" => plan.events.push(ChaosEvent::Drop {
                    from_op: get("from_op")?,
                    count: get("count")? as u32,
                }),
                "chdelay" => plan.events.push(ChaosEvent::ChDelay {
                    from_ns: get("from")?,
                    to_ns: get("to")?,
                    factor_milli: get("factor")? as u32,
                }),
                "sever" => plan.events.push(ChaosEvent::Sever { at_ns: get("at")? }),
                "ctlcrash" => plan.events.push(ChaosEvent::CtlCrash {
                    at_op: get("at_op")?,
                }),
                other => return Err(err(&format!("unknown event `{other}`"))),
            }
        }
        Ok(plan)
    }
}

/// A malformed corpus line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosParseError {
    pub line: usize,
    pub what: String,
}

impl fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos plan line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ChaosParseError {}

// -- shrinking ---------------------------------------------------------------

/// Minimize a failing schedule: `fails(candidate)` must return `true`
/// when the candidate still reproduces the failure. First events are
/// removed with the generic [`crate::ddmin`] chunk-halving loop until no
/// subset can be dropped, then every surviving event's numeric parameters
/// are halved while the failure persists. Deterministic given a
/// deterministic predicate; the result still satisfies `fails`.
pub fn shrink<F>(plan: &ChaosPlan, mut fails: F) -> ChaosPlan
where
    F: FnMut(&ChaosPlan) -> bool,
{
    let mut best = plan.clone();
    debug_assert!(fails(&best), "shrink() needs a failing starting plan");

    // Phase 1: event-subset bisection (greedy ddmin).
    best.events = crate::ddmin(&best.events, |events| {
        let mut candidate = plan.clone();
        candidate.events = events.to_vec();
        fails(&candidate)
    });

    // Phase 2: per-event parameter shrinking (halve numerics toward
    // their floor while the failure persists; bounded passes).
    for _ in 0..16 {
        let mut changed = false;
        for i in 0..best.events.len() {
            while let Some(smaller) = shrink_event(&best.events[i]) {
                let mut candidate = best.clone();
                candidate.events[i] = smaller;
                if !fails(&candidate) {
                    break;
                }
                best = candidate;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    best
}

/// One halving step of an event's numeric parameters; `None` once every
/// field is at its floor.
fn shrink_event(ev: &ChaosEvent) -> Option<ChaosEvent> {
    let half = |v: u64| v / 2;
    let half32 = |v: u32| v / 2;
    let shrunk = match *ev {
        ChaosEvent::Crash { switch, at_op } if at_op > 0 => ChaosEvent::Crash {
            switch,
            at_op: half(at_op),
        },
        ChaosEvent::Flap {
            switch,
            port,
            down_ns,
            up_ns,
        } if down_ns > 0 || up_ns > down_ns + 1 => ChaosEvent::Flap {
            switch,
            port,
            down_ns: half(down_ns),
            up_ns: (half(down_ns) + 1).max(half(up_ns)),
        },
        ChaosEvent::Delay {
            switch,
            from_ns,
            to_ns,
            factor_milli,
        } if factor_milli > 1_500 || from_ns > 0 => ChaosEvent::Delay {
            switch,
            from_ns: half(from_ns),
            to_ns: (half(from_ns) + 1).max(half(to_ns)),
            factor_milli: half32(factor_milli).max(1_500),
        },
        ChaosEvent::Drop { from_op, count } if from_op > 0 || count > 1 => ChaosEvent::Drop {
            from_op: half(from_op),
            count: half32(count).max(1),
        },
        ChaosEvent::ChDelay {
            from_ns,
            to_ns,
            factor_milli,
        } if factor_milli > 1_500 || from_ns > 0 => ChaosEvent::ChDelay {
            from_ns: half(from_ns),
            to_ns: (half(from_ns) + 1).max(half(to_ns)),
            factor_milli: half32(factor_milli).max(1_500),
        },
        ChaosEvent::Sever { at_ns } if at_ns > 0 => ChaosEvent::Sever { at_ns: half(at_ns) },
        ChaosEvent::CtlCrash { at_op } if at_op > 0 => ChaosEvent::CtlCrash { at_op: half(at_op) },
        _ => return None,
    };
    Some(shrunk)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChaosConfig {
        ChaosConfig::default()
    }

    #[test]
    fn generation_is_seed_deterministic() {
        for seed in 0..64 {
            let a = ChaosPlan::generate(seed, &cfg());
            let b = ChaosPlan::generate(seed, &cfg());
            assert_eq!(a, b, "seed {seed}");
            assert!(!a.events.is_empty());
            assert!(a.events.len() <= cfg().max_events);
        }
        assert_ne!(
            ChaosPlan::generate(3, &cfg()),
            ChaosPlan::generate(4, &cfg())
        );
    }

    #[test]
    fn at_most_one_crash_per_switch() {
        for seed in 0..256 {
            let plan = ChaosPlan::generate(seed, &cfg());
            let mut seen = Vec::new();
            for (sw, _) in plan.fabric_crashes() {
                assert!(
                    !seen.contains(&sw),
                    "seed {seed}: switch {sw} crashes twice"
                );
                seen.push(sw);
            }
            let ctl = plan
                .events
                .iter()
                .filter(|e| matches!(e, ChaosEvent::CtlCrash { .. }))
                .count();
            assert!(ctl <= 1, "seed {seed}: {ctl} controller crashes");
        }
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        for seed in 0..64 {
            let plan = ChaosPlan::generate(seed, &cfg());
            let text = plan.to_text();
            let back = ChaosPlan::parse(&text).expect("parse");
            assert_eq!(plan, back, "seed {seed}:\n{text}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosPlan::parse("explode switch=1").is_err());
        assert!(ChaosPlan::parse("crash switch=x at_op=1").is_err());
        assert!(ChaosPlan::parse("crash switch=1").is_err(), "missing field");
        // Comments and blanks are fine.
        let ok = ChaosPlan::parse("# hi\n\nseed 9\ncrash switch=1 at_op=2\n").unwrap();
        assert_eq!(ok.seed, 9);
        assert_eq!(ok.events.len(), 1);
    }

    #[test]
    fn restart_plan_drops_only_that_switchs_crash() {
        let plan = ChaosPlan {
            seed: 0,
            events: vec![
                ChaosEvent::Crash {
                    switch: 1,
                    at_op: 5,
                },
                ChaosEvent::Crash {
                    switch: 2,
                    at_op: 9,
                },
                ChaosEvent::Delay {
                    switch: 1,
                    from_ns: 0,
                    to_ns: 100,
                    factor_milli: 2_000,
                },
            ],
        };
        let restart = plan.restart_plan(1);
        assert!(restart
            .rules
            .iter()
            .all(|r| !(r.effect == FaultEffect::Crash && r.switch == Some(1))));
        assert!(restart
            .rules
            .iter()
            .any(|r| r.effect == FaultEffect::Crash && r.switch == Some(2)));
        assert!(restart
            .rules
            .iter()
            .any(|r| matches!(r.effect, FaultEffect::Delay { .. })));
    }

    #[test]
    fn shrinking_finds_the_one_guilty_event() {
        // Synthetic oracle: the failure reproduces iff the plan contains
        // a crash on switch 2 (parameters irrelevant).
        let plan = ChaosPlan::generate(
            7,
            &ChaosConfig {
                max_events: 12,
                ..cfg()
            },
        );
        let mut plan = plan;
        plan.events.push(ChaosEvent::Crash {
            switch: 2,
            at_op: 97,
        });
        let fails = |p: &ChaosPlan| {
            p.events
                .iter()
                .any(|e| matches!(e, ChaosEvent::Crash { switch: 2, .. }))
        };
        let min = shrink(&plan, fails);
        assert_eq!(min.events.len(), 1, "minimal repro is one event: {min:?}");
        assert_eq!(
            min.events[0],
            ChaosEvent::Crash {
                switch: 2,
                at_op: 0
            },
            "parameters shrink to the floor"
        );
        assert!(fails(&min), "shrunk plan still fails");
    }

    #[test]
    fn shrinking_preserves_conjunctive_failures() {
        // Failure needs BOTH a sever and a drop — shrinking must not
        // remove either.
        let plan = ChaosPlan {
            seed: 0,
            events: vec![
                ChaosEvent::Flap {
                    switch: 0,
                    port: 8,
                    down_ns: 10,
                    up_ns: 20,
                },
                ChaosEvent::Sever { at_ns: 5_000 },
                ChaosEvent::Delay {
                    switch: 0,
                    from_ns: 0,
                    to_ns: 9,
                    factor_milli: 3_000,
                },
                ChaosEvent::Drop {
                    from_op: 12,
                    count: 3,
                },
            ],
        };
        let fails = |p: &ChaosPlan| {
            p.events
                .iter()
                .any(|e| matches!(e, ChaosEvent::Sever { .. }))
                && p.events
                    .iter()
                    .any(|e| matches!(e, ChaosEvent::Drop { .. }))
        };
        let min = shrink(&plan, fails);
        assert_eq!(min.events.len(), 2);
        assert!(fails(&min));
    }
}
