//! The readiness-indexed drain against a reference that keeps no index at
//! all: after every event it borrows every switch, in index order, and
//! pumps whichever has a queue head due. Random schedules of injections —
//! closure events, typed UDP and heartbeat flows, packets pushed in from
//! outside between runs — and clock advances must leave both with the
//! same transmit log, per-switch counts and work units.

use super::*;
use crate::flows::{spawn_heartbeats_on, spawn_udp_on, HeartbeatConfig, UdpConfig};
use crate::topo::Endpoint;
use proptest::prelude::*;
use rmt_sim::{switch_from_source, PacketDesc, SwitchConfig};

impl Simulator {
    /// What a drain means, with nothing remembered between drains.
    pub(super) fn drain_reference(&mut self) {
        let mut drain_work = 0;
        let mut batch = Vec::new();
        let now = self.clock.now();
        for i in 0..self.switches.len() {
            {
                let mut sw = self.switches[i].borrow_mut();
                self.par_stats.switch_visits += 1;
                if sw.tm_queued() == 0 || sw.next_ready_at() > now {
                    continue;
                }
                drain_work += sw.pump();
                sw.drain_transmitted_with_len(&mut batch);
            }
            self.route_batch(i, &mut batch);
        }
        self.par_stats.drains += 1;
        self.par_stats.work_units += drain_work;
        self.par_stats.critical_units += drain_work;
    }
}

/// `dst` 1 leaves the fabric where it is; everything else moves one
/// switch down the line.
const RELAY_P4: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action leave() { modify_field(intr.egress_spec, 2); }
action onward() { modify_field(intr.egress_spec, 5); }
table here { actions { leave; } default_action : leave(); }
table there { actions { onward; } default_action : onward(); }
control ingress { if (ip.dst == 1) { apply(here); } else { apply(there); } }
"#;

/// The end of the line: everything leaves.
const LAST_P4: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action leave() { modify_field(intr.egress_spec, 2); }
table here { actions { leave; } default_action : leave(); }
control ingress { apply(here); }
"#;

const SWITCHES: usize = 3;

/// A three-switch line over slow ports (a 164-byte frame holds the wire
/// for 1.3 µs, so queues build and heads block each other) and links of
/// different lengths.
fn line(reference: bool) -> Simulator {
    let clock = Clock::new();
    let config = SwitchConfig {
        port_rate_bps: 1_000_000_000,
        ..SwitchConfig::default()
    };
    let switches = (0..SWITCHES)
        .map(|i| {
            let src = if i + 1 == SWITCHES { LAST_P4 } else { RELAY_P4 };
            SharedSwitch::new(switch_from_source(src, config.clone(), clock.clone()).unwrap())
        })
        .collect();
    let topo = Topology::new(SWITCHES)
        .link_with(Endpoint::new(0, 5), Endpoint::new(1, 4), 700, 0)
        .link_with(Endpoint::new(1, 5), Endpoint::new(2, 4), 2_300, 0);
    let mut sim = Simulator::fabric(switches, topo);
    sim.reference_drain = reference;
    sim
}

/// One step of a schedule.
#[derive(Clone, Debug)]
enum Step {
    /// A closure event `after` ns from now injecting into `switch`.
    Closure {
        switch: usize,
        dst: u128,
        after: u64,
    },
    /// A packet pushed into `switch` from outside, right now.
    External { switch: usize, dst: u128 },
    /// A typed UDP flow of a few packets.
    Udp { switch: usize, dst: u128, gap: u64 },
    /// A typed heartbeat stream of a few packets.
    Heartbeat { switch: usize, dst: u128, gap: u64 },
    /// Run the simulator forward.
    Advance { by: u64 },
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..6, 0..SWITCHES, 0u128..4, 1u64..6_000).prop_map(|(kind, switch, dst, t)| match kind {
        0 => Step::Closure {
            switch,
            dst,
            after: t,
        },
        1 => Step::External { switch, dst },
        2 => Step::Udp {
            switch,
            dst,
            gap: t,
        },
        3 => Step::Heartbeat {
            switch,
            dst,
            gap: t,
        },
        _ => Step::Advance { by: t },
    })
}

fn packet(dst: u128, tag: u128) -> PacketDesc {
    PacketDesc::new(0)
        .field("ip", "src", tag)
        .field("ip", "dst", dst)
        .payload(150)
}

/// Everything observable about a run.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `(switch, port, time, ip.src)` of every fabric exit, in log order.
    tx: Vec<(usize, u16, Nanos, u64)>,
    per_switch: Vec<(u64, u64)>,
    work_units: u64,
    now: Nanos,
}

/// Run `steps`, through [`Simulator::drain_reference`] when `reference`.
fn run(steps: &[Step], reference: bool) -> (Observed, ParStats) {
    let mut sim = line(reference);
    for (tag, step) in steps.iter().enumerate() {
        let tag = tag as u128;
        let now = sim.now();
        match *step {
            Step::Closure { switch, dst, after } => sim.schedule(now + after, move |s| {
                s.switch_at(switch).borrow_mut().inject(&packet(dst, tag));
            }),
            Step::External { switch, dst } => {
                sim.switch_at(switch).borrow_mut().inject(&packet(dst, tag));
            }
            Step::Udp { switch, dst, gap } => {
                spawn_udp_on(
                    &mut sim,
                    switch,
                    UdpConfig {
                        ingress_port: 0,
                        fields: vec![
                            ("ip".into(), "src".into(), tag),
                            ("ip".into(), "dst".into(), dst),
                        ],
                        payload_bytes: 150,
                        // `gap` ns between sends.
                        rate_bps: 150 * 8 * 1_000_000_000 / gap,
                        start_ns: now + gap / 2,
                        stop_ns: Some(now + 4 * gap),
                    },
                );
            }
            Step::Heartbeat { switch, dst, gap } => spawn_heartbeats_on(
                &mut sim,
                switch,
                HeartbeatConfig {
                    port: 0,
                    fields: vec![
                        ("ip".into(), "src".into(), tag),
                        ("ip".into(), "dst".into(), dst),
                    ],
                    interval_ns: gap,
                    start_ns: now,
                    stop_ns: Some(now + 3 * gap),
                },
            ),
            Step::Advance { by } => sim.run_for(by),
        }
    }
    // Let every queue and wire empty.
    sim.run_for(1_000_000);
    let src = sim.switch().borrow().field_id("ip", "src").unwrap();
    let observed = Observed {
        tx: sim
            .take_tx_tagged()
            .iter()
            .map(|(sw, p)| (*sw, p.port, p.time, p.phv.get_u64(src)))
            .collect(),
        per_switch: (0..SWITCHES)
            .map(|i| (sim.tx_count_on(i), sim.tx_bytes_on(i)))
            .collect(),
        work_units: sim.par_stats().work_units,
        now: sim.now(),
    };
    (observed, sim.par_stats())
}

proptest! {
    #[test]
    fn readiness_indexed_drain_matches_the_reference(
        steps in prop::collection::vec(step(), 1..40),
    ) {
        let (want, reference) = run(&steps, true);
        let (got, indexed) = run(&steps, false);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(indexed.drains, reference.drains);
        // The index only ever saves visits, and never pumps for nothing.
        prop_assert!(indexed.switch_visits <= reference.switch_visits);
        prop_assert_eq!(indexed.zero_serve_pumps, 0);
    }
}

#[test]
fn the_line_delivers_end_to_end() {
    let steps = [
        Step::External { switch: 0, dst: 0 },
        Step::External { switch: 0, dst: 1 },
        Step::Advance { by: 50_000 },
    ];
    let (seen, stats) = run(&steps, false);
    let exits: Vec<(usize, u16)> = seen.tx.iter().map(|t| (t.0, t.1)).collect();
    assert_eq!(exits, vec![(0, 2), (2, 2)]);
    // Three hops for the first packet, one for the second.
    assert_eq!(stats.work_units, 4);
}
