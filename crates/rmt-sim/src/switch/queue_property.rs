//! The switch's traffic manager against a reference queue model: one
//! `VecDeque` per port with its byte depth, tail drop at capacity, and
//! `tx_start = max(busy_until, enq + egress latency)`,
//! `tx_time = tx_start + wire time`, served port by port in global order.
//!
//! Random injections (arriving on, and bound for, ports in both
//! queue-mask words and off the panel), clock advances, pumps and port
//! up/down must leave both with the same transmitted `(port, bytes,
//! tx_time, depth found)` sequence, the same depths and the same rx, drop
//! and tx counters. Readiness is exact: before every pump `next_ready_at`
//! is the model's earliest head start, a pump strictly before it serves
//! nothing and one at or after it serves at least one packet.

use super::*;
use proptest::prelude::*;
use std::collections::VecDeque;

const PORTS: usize = 70;
/// Ports a step picks from: both ends of both mask words, and one off the
/// panel.
const PICK: [PortId; 8] = [0, 1, 5, 63, 64, 65, 69, 70];
const CAPACITY: u32 = 2_000;
const RATE_BPS: u64 = 10_000_000_000;
/// Half the fixed overhead: the program has no egress stage.
const EGRESS_NS: Nanos = 100;
/// Bytes of the one header; the rest of a frame is payload.
const HEADER: u32 = 2;

/// Every packet leaves by the port its header names.
const SRC: &str = r#"
header_type h_t { fields { port : 16; } }
header h_t h;
action fwd() { modify_field(intr.egress_spec, h.port); }
table t { actions { fwd; } default_action : fwd(); }
control ingress { apply(t); }
"#;

fn switch() -> Switch {
    let config = SwitchConfig {
        num_ports: PORTS as u16,
        port_rate_bps: RATE_BPS,
        queue_capacity_bytes: CAPACITY,
        timing: PipelineTiming {
            fixed: 200,
            per_stage: 100,
        },
        recirc_port: 200,
        ..SwitchConfig::default()
    };
    switch_from_source(SRC, config, Clock::new()).unwrap()
}

fn wire(bytes: u32) -> Nanos {
    (u128::from(bytes) * 8 * 1_000_000_000 / u128::from(RATE_BPS)) as Nanos
}

/// One packet the reference queued: `(bytes, enq_ns, depth it found)`.
type Entry = (u32, Nanos, u32);

/// A transmitted packet: `(port, bytes, tx_time, depth it found)`.
type Sent = (PortId, u32, Nanos, u32);

struct Model {
    queues: Vec<VecDeque<Entry>>,
    depth: Vec<u32>,
    busy: Vec<Nanos>,
    up: Vec<bool>,
    rx: Vec<(u64, u64)>,
    drops: Vec<u64>,
    tx: Vec<(u64, u64)>,
    /// `SwitchStats`: rx, tx, dropped at ingress, port down, queue full.
    stats: [u64; 5],
}

impl Model {
    fn new() -> Self {
        Model {
            queues: vec![VecDeque::new(); PORTS],
            depth: vec![0; PORTS],
            busy: vec![0; PORTS],
            up: vec![true; PORTS],
            rx: vec![(0, 0); PORTS],
            drops: vec![0; PORTS],
            tx: vec![(0, 0); PORTS],
            stats: [0; 5],
        }
    }

    /// Whether the packet was queued.
    fn inject(&mut self, from: PortId, to: PortId, bytes: u32, at: Nanos) -> bool {
        self.stats[0] += 1;
        let (from, to) = (usize::from(from), usize::from(to));
        if from < PORTS {
            if !self.up[from] {
                self.stats[3] += 1;
                return false;
            }
            self.rx[from].0 += 1;
            self.rx[from].1 += u64::from(bytes);
        }
        if to >= PORTS {
            self.stats[2] += 1;
            return false;
        }
        if self.depth[to] + bytes > CAPACITY {
            self.drops[to] += 1;
            self.stats[4] += 1;
            return false;
        }
        self.queues[to].push_back((bytes, at, self.depth[to]));
        self.depth[to] += bytes;
        true
    }

    fn head_start(&self, p: usize) -> Option<Nanos> {
        let &(_, enq, _) = self.queues[p].front()?;
        Some(self.busy[p].max(enq.saturating_add(EGRESS_NS)))
    }

    fn ready(&self) -> Nanos {
        (0..PORTS)
            .filter_map(|p| self.head_start(p))
            .min()
            .unwrap_or(Nanos::MAX)
    }

    /// Every due packet, in global port order: how many left their queues,
    /// and the ones that made the wire.
    fn serve(&mut self, now: Nanos) -> (u64, Vec<Sent>) {
        let (mut served, mut sent) = (0, Vec::new());
        for p in 0..PORTS {
            while let Some(tx_start) = self.head_start(p).filter(|&t| t <= now) {
                let (bytes, _, found) = self.queues[p].pop_front().unwrap();
                served += 1;
                self.depth[p] -= bytes;
                let tx_time = tx_start.saturating_add(wire(bytes));
                self.busy[p] = tx_time;
                if self.up[p] {
                    self.tx[p].0 += 1;
                    self.tx[p].1 += u64::from(bytes);
                    self.stats[1] += 1;
                    sent.push((p as PortId, bytes, tx_time, found));
                } else {
                    self.stats[3] += 1;
                }
            }
        }
        (served, sent)
    }
}

struct Harness {
    sw: Switch,
    deq_qdepth: FieldId,
    model: Model,
    out: Vec<(TxPacket, u32)>,
}

impl Harness {
    fn new() -> Self {
        let sw = switch();
        let deq_qdepth = sw.spec().intr_ids().unwrap().deq_qdepth;
        Harness {
            sw,
            deq_qdepth,
            model: Model::new(),
            out: Vec::new(),
        }
    }

    /// Pump at the current time through both; assert they agree, and that
    /// readiness said beforehand what the pump would do.
    fn pump(&mut self) -> Result<(), TestCaseError> {
        let (now, ready) = (self.sw.clock().now(), self.sw.next_ready_at());
        prop_assert_eq!(ready, self.model.ready());
        let (served, want) = self.model.serve(now);
        let got_served = self.sw.pump();
        prop_assert_eq!(got_served, served);
        if now < ready {
            prop_assert_eq!(got_served, 0, "served before ready {}", ready);
        } else {
            prop_assert!(got_served > 0, "nothing served at ready {}", ready);
        }
        self.sw.drain_transmitted_with_len(&mut self.out);
        let deq = self.deq_qdepth;
        let got: Vec<Sent> = (self.out.drain(..))
            .map(|(pkt, bytes)| (pkt.port, bytes, pkt.time, pkt.phv.get_u64(deq) as u32))
            .collect();
        prop_assert_eq!(got, want);
        Ok(())
    }

    fn step(&mut self, (kind, pick, a, b): (u8, usize, u64, u64)) -> Result<(), TestCaseError> {
        let port = PICK[pick % PICK.len()];
        let now = self.sw.clock().now();
        match kind {
            0..=5 => {
                // Sizes that divide the capacity exactly, so a queue is
                // also filled to the byte, and any other size.
                let bytes = match a % 4 {
                    0 => 500,
                    1 => 1_000,
                    _ => 64 + (a % 1_455) as u32,
                };
                let to = PICK[(a >> 32) as usize % PICK.len()];
                let at = now - (b % 2_000).min(now);
                let desc = PacketDesc::new(port)
                    .field("h", "port", u128::from(to))
                    .payload(bytes - HEADER);
                let phv = desc.build(self.sw.spec());
                prop_assert_eq!(
                    self.sw.inject_phv_at(phv, at),
                    self.model.inject(port, to, bytes, at)
                );
            }
            6 | 7 => {
                self.sw.clock().advance(a % 3_000);
            }
            8 | 9 => self.pump()?,
            10 => {
                let up = b % 3 != 0;
                let on_panel = usize::from(port) < PORTS;
                prop_assert_eq!(self.sw.port_set_up(port, up).is_ok(), on_panel);
                if on_panel {
                    self.model.up[usize::from(port)] = up;
                }
            }
            _ => {
                // Jump to the ready time (or just short of it) and pump.
                let ready = self.sw.next_ready_at();
                if ready != Nanos::MAX && ready > now {
                    let short = u64::from(b % 2 == 0).min(ready - now);
                    self.sw.clock().advance_to(ready - short);
                    self.pump()?;
                }
            }
        }
        let m = &self.model;
        let s = &self.sw.stats;
        prop_assert_eq!(
            [
                s.rx,
                s.tx,
                s.dropped_ingress,
                s.dropped_port_down,
                s.dropped_queue
            ],
            m.stats
        );
        let queued: usize = m.queues.iter().map(VecDeque::len).sum();
        prop_assert_eq!(self.sw.tm_queued(), queued as u64);
        for p in 0..=PORTS {
            let port = p as PortId;
            let depth = m.depth.get(p).copied().unwrap_or(0);
            prop_assert_eq!(self.sw.queue_depth(port), depth);
            let Some(s) = self.sw.port(port) else {
                prop_assert_eq!(p, PORTS);
                continue;
            };
            prop_assert_eq!(
                (
                    s.up,
                    (s.rx_packets, s.rx_bytes),
                    s.queue_drops,
                    (s.tx_packets, s.tx_bytes)
                ),
                (m.up[p], m.rx[p], m.drops[p], m.tx[p])
            );
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn the_traffic_manager_is_the_reference_queue_model(
        ops in prop::collection::vec((0u8..13, any::<usize>(), any::<u64>(), any::<u64>()), 1..200),
    ) {
        let mut h = Harness::new();
        for op in ops {
            h.step(op)?;
        }
        // Everything still queued drains, in order, once the clock has
        // passed every head.
        h.sw.clock().advance(1_000_000);
        h.pump()?;
        prop_assert_eq!(h.sw.tm_queued(), 0);
        prop_assert_eq!(h.sw.next_ready_at(), Nanos::MAX);
    }
}
