//! # mantis
//!
//! The facade crate of the Mantis reproduction — a from-scratch Rust
//! implementation of *Mantis: Reactive Programmable Switches* (SIGCOMM
//! 2020): the P4R language, the Mantis compiler, a deterministic RMT
//! switch simulator, the reactive control-plane agent with serializable
//! isolation, and a discrete-event network simulator.
//!
//! The quickest way in is [`Testbed`]:
//!
//! ```
//! use mantis::Testbed;
//!
//! let src = r#"
//! header_type h_t { fields { a : 32; } }
//! header h_t h;
//! malleable value boost { width : 32; init : 5; }
//! action bump() { add_to_field(h.a, ${boost}); }
//! table t { actions { bump; } default_action : bump(); }
//! reaction tune(ing h.a) {
//!     if (h_a > 100) { ${boost} = 1; }
//! }
//! control ingress { apply(t); }
//! "#;
//! let mut tb = Testbed::from_p4r(src).unwrap();
//! tb.agent.borrow_mut().register_all_interpreted().unwrap();
//! tb.sim.switch().borrow_mut().inject(
//!     &mantis::rmt_sim::PacketDesc::new(0).field("h", "a", 200).payload(64),
//! );
//! tb.agent.borrow_mut().dialogue_iteration().unwrap();
//! assert_eq!(tb.agent.borrow().slot("boost"), Some(1));
//! ```

#![forbid(unsafe_code)]

pub use mantis_agent;
pub use mantis_apps as apps;
pub use mantis_control as control;
pub use mantis_telemetry as telemetry;
pub use netsim;
pub use p4_ast;
pub use p4r_compiler;
pub use p4r_lang;
pub use reaction_interp;
pub use rmt_sim;

pub use mantis_agent::{
    schedule_agent, schedule_fabric_agents, schedule_paced_agent, AgentError, AgentErrorKind,
    AgentPhase, CostModel, MantisAgent, NativeReaction, ReactionCtx, ReactionFailure,
};
pub use mantis_control::{ChannelConfig, ControlPlane, Controller, ControllerConfig, RemoteDriver};
pub use mantis_faults::{
    BreakerConfig, BreakerState, CircuitBreaker, FaultInjector, FaultOp, FaultPlan, FaultWindow,
    RetryPolicy,
};
pub use mantis_telemetry::{Scope, Telemetry, TelemetryConfig};
pub use netsim::{Endpoint, Link, Topology};
pub use p4r_compiler::{compile_source, CompileError, Compiled, CompilerOptions};
pub use rmt_sim::{Clock, SharedSwitch, Switch, SwitchConfig};

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Everything wired together: a compiled program loaded into a simulated
/// switch, a Mantis agent attached to it (prologue already run), and a
/// network simulator sharing the same virtual clock.
pub struct Testbed {
    pub compiled: Compiled,
    pub sim: netsim::Simulator,
    pub agent: Rc<RefCell<MantisAgent>>,
    /// Shared observability handle: the agent, driver, switch, and flow
    /// sources all record into this one registry/tracer.
    pub telemetry: Arc<Telemetry>,
    /// The switch-side control-plane endpoint when the agent drives the
    /// switch remotely ([`DriverMode::Remote`]); `None` on a local driver.
    pub plane: Option<Rc<RefCell<ControlPlane>>>,
}

impl fmt::Debug for Testbed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Testbed").finish_non_exhaustive()
    }
}

/// Errors from testbed construction.
#[derive(Debug)]
pub enum TestbedError {
    Compile(CompileError),
    Load(rmt_sim::LoadError),
    Agent(AgentError),
}

impl fmt::Display for TestbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestbedError::Compile(e) => write!(f, "compile: {e}"),
            TestbedError::Load(e) => write!(f, "load: {e}"),
            TestbedError::Agent(e) => write!(f, "agent: {e}"),
        }
    }
}

impl std::error::Error for TestbedError {}

/// How a testbed's agents reach their switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriverMode {
    /// In-process [`mantis_agent::LocalDriver`] — the paper's deployment
    /// (agent on the switch CPU).
    Local,
    /// Wire-encoded batches over a [`ChannelConfig`]-parameterized control
    /// channel ([`RemoteDriver`]).
    Remote(ChannelConfig),
}

impl Testbed {
    /// Compile P4R source, load it into a default-config switch, attach an
    /// agent (running its prologue) that drives the switch in process, and
    /// wrap everything in a simulator.
    pub fn from_p4r(src: &str) -> Result<Testbed, TestbedError> {
        Testbed::with_config_mode(
            src,
            SwitchConfig::default(),
            CostModel::default(),
            DriverMode::Local,
        )
    }

    /// Full control: switch and cost configuration and the [`DriverMode`].
    /// A `Testbed` is the 1-node special case of [`Fabric`]: construction
    /// delegates to [`Fabric::with_driver_mode`] on the trivial topology.
    pub fn with_config_mode(
        src: &str,
        switch_cfg: SwitchConfig,
        cost: CostModel,
        mode: DriverMode,
    ) -> Result<Testbed, TestbedError> {
        let mut fabric =
            Fabric::with_driver_mode(&[src], Topology::single(), switch_cfg, cost, mode)?;
        Ok(Testbed {
            compiled: fabric.compiled.remove(0),
            sim: fabric.sim,
            agent: fabric.agents.remove(0),
            telemetry: fabric.telemetry,
            plane: fabric.planes.pop(),
        })
    }

    /// Dump the run so far as Chrome `trace_event` JSON (open in
    /// Perfetto or `chrome://tracing`).
    pub fn chrome_trace(&self) -> String {
        self.telemetry.chrome_trace_json()
    }

    /// Dump the metrics registry (counters, gauges, p50/p95/p99
    /// histogram summaries) as flat JSON.
    pub fn telemetry_snapshot(&self) -> String {
        self.telemetry.snapshot_json()
    }

    /// Schedule the dialogue loop: back-to-back when `pace_ns == 0`, else
    /// one iteration per `pace_ns`.
    pub fn start_agent(&mut self, pace_ns: u64) {
        if pace_ns == 0 {
            mantis_agent::schedule_agent(&mut self.sim, self.agent.clone(), 0);
        } else {
            mantis_agent::schedule_paced_agent(&mut self.sim, self.agent.clone(), pace_ns, 0);
        }
    }
}

/// A topology of Mantis switches, each with its own agent, all sharing one
/// virtual clock and telemetry registry (DESIGN.md §10).
///
/// Switch `i` of the [`Topology`] runs program `i`; a packet transmitted
/// out a linked port is delivered to the peer switch after the link's wire
/// delay, so multi-hop experiments (failover around a downed inter-switch
/// link, ECMP across spine uplinks) measure real end-to-end behavior.
pub struct Fabric {
    /// Per-switch compiled programs (`compiled[i]` runs on switch `i`).
    pub compiled: Vec<Compiled>,
    pub sim: netsim::Simulator,
    /// Per-switch agents, prologues already run.
    pub agents: Vec<Rc<RefCell<MantisAgent>>>,
    /// Shared observability handle. On a multi-switch fabric, switches
    /// additionally record under `sw<i>.`-scoped metric names.
    pub telemetry: Arc<Telemetry>,
    /// Per-switch control-plane endpoints when built with
    /// [`DriverMode::Remote`] (`planes[i]` serves switch `i`); empty when
    /// agents drive their switches in-process.
    pub planes: Vec<Rc<RefCell<ControlPlane>>>,
}

impl fmt::Debug for Fabric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fabric")
            .field("switches", &self.agents.len())
            .finish_non_exhaustive()
    }
}

impl Fabric {
    /// Compile one P4R program and run it on every switch of `topo`, each
    /// driven in process by its own agent.
    pub fn from_p4r(src: &str, topo: Topology) -> Result<Fabric, TestbedError> {
        let srcs = vec![src; topo.num_switches()];
        Fabric::with_driver_mode(
            &srcs,
            topo,
            SwitchConfig::default(),
            CostModel::default(),
            DriverMode::Local,
        )
    }

    /// Full control: `srcs[i]` runs on switch `i` (e.g. leaf vs spine
    /// programs of a Clos fabric), under one switch/cost configuration and
    /// [`DriverMode`]. Headers shared by name across programs survive
    /// inter-switch hops; fields only one program knows do not. Under
    /// [`DriverMode::Remote`] each agent talks to its switch through a
    /// [`RemoteDriver`] over its own channel, and the switch-side endpoints
    /// are exposed via [`Fabric::planes`].
    ///
    /// # Panics
    /// Panics when `srcs.len()` does not match the topology.
    pub fn with_driver_mode(
        srcs: &[&str],
        topo: Topology,
        switch_cfg: SwitchConfig,
        cost: CostModel,
        mode: DriverMode,
    ) -> Result<Fabric, TestbedError> {
        assert!(
            srcs.len() == topo.num_switches(),
            "{} programs for a {}-switch topology",
            srcs.len(),
            topo.num_switches()
        );
        let multi = topo.num_switches() > 1;
        let clock = Clock::new();
        let telemetry = Telemetry::shared();
        let mut compiled = Vec::with_capacity(srcs.len());
        let mut switches = Vec::with_capacity(srcs.len());
        let mut agents = Vec::with_capacity(srcs.len());
        let mut planes = Vec::new();
        for (i, src) in srcs.iter().enumerate() {
            let comp =
                compile_source(src, &CompilerOptions::default()).map_err(TestbedError::Compile)?;
            let spec = rmt_sim::load(&comp.p4).map_err(TestbedError::Load)?;
            let switch = SharedSwitch::new(Switch::new(spec, switch_cfg.clone(), clock.clone()));
            {
                let mut sw = switch.borrow_mut();
                sw.set_telemetry(telemetry.clone());
                // Single-switch fabrics keep unscoped metric names only, so
                // every existing telemetry golden stays byte-identical.
                sw.set_fabric_index(multi.then_some(i as u16));
            }
            let mut agent = match mode {
                DriverMode::Local => MantisAgent::new(switch.clone(), &comp, cost.clone()),
                DriverMode::Remote(chan) => {
                    let (agent, plane) =
                        mantis_control::remote_agent(switch.clone(), &comp, cost.clone(), chan);
                    planes.push(plane);
                    agent
                }
            };
            agent.set_telemetry(telemetry.clone());
            agent.set_fabric_index(multi.then_some(i as u16));
            agent.prologue().map_err(TestbedError::Agent)?;
            compiled.push(comp);
            switches.push(switch);
            agents.push(Rc::new(RefCell::new(agent)));
        }
        Ok(Fabric {
            compiled,
            sim: netsim::Simulator::fabric(switches, topo),
            agents,
            telemetry,
            planes,
        })
    }

    pub fn num_switches(&self) -> usize {
        self.agents.len()
    }

    pub fn agent(&self, i: usize) -> &Rc<RefCell<MantisAgent>> {
        &self.agents[i]
    }

    /// Schedule every agent's paced dialogue loop with deterministic phase
    /// offsets (agent `i` starts at `i·td/n`), so per-switch control loops
    /// interleave like independent CPUs instead of firing in lockstep.
    pub fn start_agents(&mut self, td_ns: u64) {
        mantis_agent::schedule_fabric_agents(&mut self.sim, &self.agents, td_ns.max(1), 0);
    }

    /// Dump the run so far as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> String {
        self.telemetry.chrome_trace_json()
    }

    /// Dump the metrics registry as flat JSON.
    pub fn telemetry_snapshot(&self) -> String {
        self.telemetry.snapshot_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modes() -> [DriverMode; 2] {
        [
            DriverMode::Local,
            DriverMode::Remote(ChannelConfig::default()),
        ]
    }

    #[test]
    fn testbed_compiles_and_reacts() {
        let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action touch() { add_to_field(h.a, ${knob}); }
table t { actions { touch; } default_action : touch(); }
reaction r(ing h.a) { ${knob} = h_a + 1; }
control ingress { apply(t); }
"#;
        for mode in modes() {
            let mut tb =
                Testbed::with_config_mode(src, SwitchConfig::default(), CostModel::default(), mode)
                    .unwrap();
            tb.agent.borrow_mut().register_all_interpreted().unwrap();
            tb.start_agent(10_000);
            tb.sim
                .switch()
                .borrow_mut()
                .inject(&rmt_sim::PacketDesc::new(0).field("h", "a", 41).payload(64));
            tb.sim.run_until(100_000);
            assert_eq!(tb.agent.borrow().slot("knob"), Some(42), "{mode:?}");
        }
    }

    #[test]
    fn bad_source_reports_compile_error() {
        for mode in modes() {
            assert!(matches!(
                Testbed::with_config_mode(
                    "this is not p4r",
                    SwitchConfig::default(),
                    CostModel::default(),
                    mode,
                ),
                Err(TestbedError::Compile(_))
            ));
        }
    }

    #[test]
    fn remote_testbed_reacts_like_local() {
        let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action touch() { add_to_field(h.a, ${knob}); }
table t { actions { touch; } default_action : touch(); }
reaction r(ing h.a) { ${knob} = h_a + 1; }
control ingress { apply(t); }
"#;
        let mut tb = Testbed::with_config_mode(
            src,
            SwitchConfig::default(),
            CostModel::default(),
            DriverMode::Remote(ChannelConfig::default()),
        )
        .unwrap();
        assert!(tb.plane.is_some());
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        tb.start_agent(10_000);
        tb.sim
            .switch()
            .borrow_mut()
            .inject(&rmt_sim::PacketDesc::new(0).field("h", "a", 41).payload(64));
        tb.sim.run_until(100_000);
        assert_eq!(tb.agent.borrow().slot("knob"), Some(42));
        // The dialogue ran over the wire: frames were exchanged.
        let snap = tb.telemetry_snapshot();
        assert!(snap.contains("control.frames"), "snapshot: {snap}");
        // Local construction exposes no plane.
        let local = Testbed::from_p4r(src).unwrap();
        assert!(local.plane.is_none());
    }

    #[test]
    fn fabric_links_two_reacting_switches() {
        // Switch 0 forwards everything to its uplink; switch 1 counts what
        // arrives and its agent mirrors the count into a knob.
        let fwd = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
action up() { modify_field(intr.egress_spec, 4); }
table t { actions { up; } default_action : up(); }
reaction idle(ing h.a) { if (h_a > 4294967295) { } }
control ingress { apply(t); }
"#;
        let count = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
register seen { width : 64; instance_count : 4; }
malleable value knob { width : 32; init : 0; }
action tally() { count(seen, 0); modify_field(intr.egress_spec, 1); }
table t { actions { tally; } default_action : tally(); }
reaction watch(reg seen[0:0]) { ${knob} = seen[0]; }
control ingress { apply(t); }
"#;
        for mode in modes() {
            let topo = Topology::new(2).link(Endpoint::new(0, 4), Endpoint::new(1, 4));
            let mut fab = Fabric::with_driver_mode(
                &[fwd, count],
                topo,
                SwitchConfig::default(),
                CostModel::default(),
                mode,
            )
            .unwrap();
            for agent in &fab.agents {
                agent.borrow_mut().register_all_interpreted().unwrap();
            }
            fab.start_agents(50_000);
            for i in 0..5u64 {
                fab.sim.schedule(i * 10_000, move |s| {
                    s.switch_at(0)
                        .borrow_mut()
                        .inject(&rmt_sim::PacketDesc::new(0).field("h", "a", 7).payload(64));
                });
            }
            fab.sim.run_until(1_000_000);
            // All five packets crossed the link and were counted on switch 1,
            // and switch 1's *own agent* observed them.
            assert_eq!(fab.agents[1].borrow().slot("knob"), Some(5), "{mode:?}");
            // Fabric-scoped telemetry appears for both switches.
            let snap = fab.telemetry_snapshot();
            assert!(snap.contains("sw0.switch.tx"), "snapshot: {snap}");
            assert!(snap.contains("sw1.switch.rx"), "snapshot: {snap}");
            // Both agents feed one registry; each one's stats are its own.
            let iterations = |i: usize| fab.agents[i].borrow().stats().iterations;
            assert_eq!((iterations(0), iterations(1)), (21, 20));
            assert_eq!(fab.telemetry.counter("agent.iterations"), 41);
        }
    }
}
