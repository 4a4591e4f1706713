//! Traffic sources: TCP-like AIMD flows, constant-bit-rate UDP senders,
//! heartbeat generators, and the bulk "scale" flow engine behind the
//! unscaled Fig. 14 reproduction.
//!
//! The TCP model is deliberately simple — rate-based AIMD with one
//! multiplicative decrease per RTT on loss — which captures what the
//! paper's experiments depend on: flows back off under drops and recover on
//! the RTT timescale (Fig. 15's ~500 µs return to steady state).
//!
//! All sources run on the typed event hot path: a spawn compiles the
//! flow's [`FieldTemplate`] into an interned
//! [`PacketTemplate`](rmt_sim::PacketTemplate) once, registers the flow in
//! the simulator's [`FlowRegistry`], and schedules a typed
//! [`EventKind`](crate::sim) variant that carries only the registry index.
//! Per-packet work is then a freelist PHV plus id-indexed field writes —
//! no allocation, no name lookups, no boxed closures.

use crate::sim::{EventKind, Simulator};
use mantis_telemetry::{GaugeId, Scope};
use rmt_sim::{Nanos, PacketDesc, PacketTemplate, PortId};
use std::cell::RefCell;
use std::rc::Rc;

/// Header fields to stamp on every generated packet:
/// `(instance, field, value)`.
pub type FieldTemplate = Vec<(String, String, u128)>;

/// Typed per-flow state owned by the [`Simulator`], indexed by the ids
/// carried in flow events. One registry per simulator; spawns append,
/// nothing is ever removed (flow ids stay stable for a run's lifetime).
#[derive(Default)]
pub(crate) struct FlowRegistry {
    pub tcp: Vec<Rc<RefCell<TcpState>>>,
    /// Constant-rate sources: UDP senders and heartbeat sources.
    pub udp: Vec<UdpFlow>,
    /// Scale-flow shards, one per injection switch. `None` only while the
    /// shard is checked out by its own wake event.
    pub scale: Vec<Option<FlowShard>>,
}

/// Configuration of a TCP-like AIMD flow.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    pub ingress_port: PortId,
    pub fields: FieldTemplate,
    pub payload_bytes: u32,
    pub initial_rate_bps: u64,
    pub min_rate_bps: u64,
    pub max_rate_bps: u64,
    /// Additive increase per RTT.
    pub increase_bps: u64,
    pub rtt_ns: Nanos,
    pub start_ns: Nanos,
    /// Stop sending at this time (None = run forever).
    pub stop_ns: Option<Nanos>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            ingress_port: 0,
            fields: Vec::new(),
            payload_bytes: 1_400,
            initial_rate_bps: 100_000_000,
            min_rate_bps: 1_000_000,
            max_rate_bps: 25_000_000_000,
            increase_bps: 20_000_000,
            rtt_ns: 100_000, // 100 µs data-center RTT
            start_ns: 0,
            stop_ns: None,
        }
    }
}

/// Live state of a TCP flow.
#[derive(Debug)]
pub struct TcpState {
    /// Simulator-assigned id, used in telemetry metric names.
    pub flow_id: u64,
    /// Fabric switch this flow injects into (0 on a single-switch testbed).
    pub switch: usize,
    pub cfg: TcpConfig,
    pub rate_bps: u64,
    pub sent_pkts: u64,
    pub accepted_pkts: u64,
    pub accepted_bytes: u64,
    pub lost_pkts: u64,
    loss_this_rtt: bool,
    /// External back-off request (e.g. ECN feedback computed by an
    /// experiment harness): rate is multiplied by `f` at the next RTT tick.
    pub backoff_factor: Option<f64>,
    pub stopped: bool,
    /// Nominal time of the next send (keeps the rate when the shared clock
    /// jumps ahead during control-plane work).
    next_send_ns: Nanos,
    /// Send-chain generation: bumped when the AIMD tick reschedules an
    /// overslept send loop, invalidating the stale pending event.
    send_gen: u64,
    /// `cfg.fields` compiled against the target switch's spec at spawn.
    tmpl: PacketTemplate,
    /// Handle for `netsim.flow{id}_rate_bps`, resolved by the first AIMD
    /// tick that finds telemetry on (and again should the fabric's
    /// registry be replaced afterwards).
    rate_gauge: GaugeId,
}

impl TcpState {
    /// Interval between packets at the current rate.
    fn send_interval(&self) -> Nanos {
        let bits = u64::from(self.cfg.payload_bytes) * 8;
        (bits * 1_000_000_000 / self.rate_bps.max(1)).max(1)
    }
}

/// Compile `(port, fields, payload)` against the spec of fabric switch
/// `switch`, panicking on unknown fields exactly as the historical
/// per-packet [`PacketDesc::build`] did.
fn compile_template(
    sim: &Simulator,
    switch: usize,
    port: PortId,
    fields: &FieldTemplate,
    payload_bytes: u32,
) -> PacketTemplate {
    let mut d = PacketDesc::new(port).payload(payload_bytes);
    for (i, f, v) in fields {
        d = d.field(i, f, *v);
    }
    let sw = sim.switch_at(switch).borrow();
    PacketTemplate::compile(&d, sw.spec()).unwrap_or_else(|e| panic!("{e}"))
}

/// Spawn a TCP flow into switch 0; returns a handle to its state.
pub fn spawn_tcp(sim: &mut Simulator, cfg: TcpConfig) -> Rc<RefCell<TcpState>> {
    spawn_tcp_on(sim, 0, cfg)
}

/// Spawn a TCP flow injecting into fabric switch `switch`.
pub fn spawn_tcp_on(sim: &mut Simulator, switch: usize, cfg: TcpConfig) -> Rc<RefCell<TcpState>> {
    let flow_id = sim.alloc_flow_id();
    let tmpl = compile_template(
        sim,
        switch,
        cfg.ingress_port,
        &cfg.fields,
        cfg.payload_bytes,
    );
    let start = cfg.start_ns;
    let rtt = cfg.rtt_ns;
    let state = Rc::new(RefCell::new(TcpState {
        flow_id,
        switch,
        rate_bps: cfg.initial_rate_bps,
        next_send_ns: start,
        send_gen: 0,
        cfg,
        sent_pkts: 0,
        accepted_pkts: 0,
        accepted_bytes: 0,
        lost_pkts: 0,
        loss_this_rtt: false,
        backoff_factor: None,
        stopped: false,
        tmpl,
        rate_gauge: GaugeId::default(),
    }));
    let flow = u32::try_from(sim.flows.tcp.len()).expect("tcp flow count fits u32");
    sim.flows.tcp.push(state.clone());
    // Send loop, then the AIMD tick — same schedule order as the
    // historical closure pair, so event seqs (and with them every
    // same-instant tie-break) are preserved.
    sim.schedule_kind(start, EventKind::TcpSend { flow, gen: 0 });
    let tick = start.saturating_add(rtt);
    sim.schedule_kind(
        tick,
        EventKind::TcpTick {
            flow,
            nominal: tick,
        },
    );
    state
}

/// One TCP packet send (the `EventKind::TcpSend` handler).
pub(crate) fn tcp_send_event(sim: &mut Simulator, flow: u32, gen: u64) {
    let state = sim.flows.tcp[flow as usize].clone();
    let switch = {
        let st = state.borrow();
        if gen != st.send_gen {
            return; // superseded by a tick-rescheduled chain
        }
        if st.stopped || st.cfg.stop_ns.is_some_and(|t| sim.now() >= t) {
            drop(st);
            state.borrow_mut().stopped = true;
            return;
        }
        st.switch
    };
    let accepted = sim.inject_on(switch, |sw, _| sw.inject_template(&state.borrow().tmpl));
    let next = {
        let mut st = state.borrow_mut();
        st.sent_pkts += 1;
        if accepted {
            st.accepted_pkts += 1;
            st.accepted_bytes += u64::from(st.cfg.payload_bytes);
        } else {
            st.lost_pkts += 1;
            st.loss_this_rtt = true;
            let tel = sim.telemetry();
            if tel.is_enabled() {
                tel.instant(
                    Scope::NetSim,
                    "tcp_drop",
                    sim.now(),
                    &[("flow", i128::from(st.flow_id))],
                );
            }
        }
        // A nominal send past the u64 horizon ends the chain (a clamped
        // reschedule would fire at the same instant forever).
        let interval = st.send_interval();
        let Some(next) = st.next_send_ns.checked_add(interval) else {
            st.stopped = true;
            return;
        };
        st.next_send_ns = next;
        next
    };
    sim.schedule_kind(next, EventKind::TcpSend { flow, gen });
}

/// One AIMD rate tick (the `EventKind::TcpTick` handler).
pub(crate) fn tcp_tick_event(sim: &mut Simulator, flow: u32, nominal: Nanos) {
    let state = sim.flows.tcp[flow as usize].clone();
    let (wake, rtt) = {
        let mut st = state.borrow_mut();
        if st.stopped {
            return;
        }
        if let Some(f) = st.backoff_factor.take() {
            st.rate_bps = ((st.rate_bps as f64 * f) as u64).max(st.cfg.min_rate_bps);
        } else if st.loss_this_rtt {
            st.rate_bps = (st.rate_bps / 2).max(st.cfg.min_rate_bps);
        } else {
            st.rate_bps = (st.rate_bps + st.cfg.increase_bps).min(st.cfg.max_rate_bps);
        }
        st.loss_this_rtt = false;
        {
            let tel = sim.telemetry();
            if tel.is_enabled() {
                if !tel.owns(st.rate_gauge) {
                    st.rate_gauge =
                        tel.register_gauge(&format!("netsim.flow{}_rate_bps", st.flow_id));
                }
                tel.set(st.rate_gauge, i128::from(st.rate_bps));
            }
        }
        // If the send loop overslept at a previously tiny rate,
        // reschedule it at the new rate's pace.
        let interval = st.send_interval();
        let wake = if st.next_send_ns > sim.now().saturating_add(interval) {
            st.send_gen += 1;
            st.next_send_ns = sim.now().saturating_add(interval);
            Some((st.next_send_ns, st.send_gen))
        } else {
            None
        };
        (wake, st.cfg.rtt_ns)
    };
    if let Some((at, gen)) = wake {
        sim.schedule_kind(at, EventKind::TcpSend { flow, gen });
    }
    let Some(next) = nominal.checked_add(rtt.max(1)) else {
        return;
    };
    sim.schedule_kind(
        next,
        EventKind::TcpTick {
            flow,
            nominal: next,
        },
    );
}

/// Configuration of a constant-bit-rate UDP sender (the Fig. 15 attacker).
#[derive(Clone, Debug)]
pub struct UdpConfig {
    pub ingress_port: PortId,
    pub fields: FieldTemplate,
    pub payload_bytes: u32,
    pub rate_bps: u64,
    pub start_ns: Nanos,
    pub stop_ns: Option<Nanos>,
}

/// Live state of a UDP sender.
#[derive(Debug, Default)]
pub struct UdpState {
    pub sent_pkts: u64,
    pub accepted_pkts: u64,
    pub dropped_pkts: u64,
    pub stopped: bool,
}

/// Registry entry for a constant-rate source: a CBR UDP sender, or —
/// without counters — a heartbeat source.
pub(crate) struct UdpFlow {
    switch: usize,
    stop_ns: Option<Nanos>,
    interval: Nanos,
    tmpl: PacketTemplate,
    /// A UDP sender's counters; `None` for a heartbeat source.
    state: Option<Rc<RefCell<UdpState>>>,
}

/// Spawn a CBR UDP sender into switch 0.
pub fn spawn_udp(sim: &mut Simulator, cfg: UdpConfig) -> Rc<RefCell<UdpState>> {
    spawn_udp_on(sim, 0, cfg)
}

/// Spawn a CBR UDP sender injecting into fabric switch `switch`.
pub fn spawn_udp_on(sim: &mut Simulator, switch: usize, cfg: UdpConfig) -> Rc<RefCell<UdpState>> {
    let state = Rc::new(RefCell::new(UdpState::default()));
    let interval = (u64::from(cfg.payload_bytes) * 8 * 1_000_000_000 / cfg.rate_bps.max(1)).max(1);
    let tmpl = compile_template(
        sim,
        switch,
        cfg.ingress_port,
        &cfg.fields,
        cfg.payload_bytes,
    );
    let flow = UdpFlow {
        switch,
        stop_ns: cfg.stop_ns,
        interval,
        tmpl,
        state: Some(state.clone()),
    };
    push_constant_rate(sim, flow, cfg.start_ns);
    state
}

/// Register a constant-rate source and schedule its first send at `start`.
fn push_constant_rate(sim: &mut Simulator, flow: UdpFlow, start: Nanos) {
    let id = u32::try_from(sim.flows.udp.len()).expect("udp flow count fits u32");
    sim.flows.udp.push(flow);
    sim.schedule_kind(
        start,
        EventKind::UdpSend {
            flow: id,
            nominal: start,
        },
    );
}

/// One constant-rate send (the `EventKind::UdpSend` handler). A UDP
/// sender's `stopped` flag and counters are read and written here; a
/// heartbeat source has neither.
pub(crate) fn udp_send_event(sim: &mut Simulator, flow: u32, nominal: Nanos) {
    let i = flow as usize;
    let f = &sim.flows.udp[i];
    let (switch, interval, state) = (f.switch, f.interval, f.state.clone());
    let mut stop = f.stop_ns.is_some_and(|t| sim.now() >= t);
    if let Some(st) = &state {
        let mut st = st.borrow_mut();
        stop |= st.stopped;
        st.stopped = stop;
    }
    if stop {
        return;
    }
    let ok = sim.inject_on(switch, |sw, flows| sw.inject_template(&flows.udp[i].tmpl));
    if let Some(st) = &state {
        let mut st = st.borrow_mut();
        st.sent_pkts += 1;
        if ok {
            st.accepted_pkts += 1;
        } else {
            st.dropped_pkts += 1;
        }
    }
    let Some(next) = nominal.checked_add(interval.max(1)) else {
        return;
    };
    sim.schedule_kind(
        next,
        EventKind::UdpSend {
            flow,
            nominal: next,
        },
    );
}

/// Heartbeat generator for the gray-failure use case (§8.3.2): one
/// high-priority heartbeat every `interval_ns` into `port`. When the port
/// is administratively down (simulating a link failure), the switch drops
/// the heartbeats and the data plane stops counting them.
#[derive(Clone, Debug)]
pub struct HeartbeatConfig {
    pub port: PortId,
    pub fields: FieldTemplate,
    pub interval_ns: Nanos,
    pub start_ns: Nanos,
    /// Stop generating at this virtual time (`None` = run forever).
    /// Workloads that must fully quiesce — e.g. the chaos soak's counter
    /// conservation check, which needs every injected packet to be either
    /// transmitted or attributed to a drop counter — stop the heartbeats
    /// before the horizon and let the queues drain.
    pub stop_ns: Option<Nanos>,
}

pub fn spawn_heartbeats(sim: &mut Simulator, cfg: HeartbeatConfig) {
    spawn_heartbeats_on(sim, 0, cfg);
}

/// Heartbeat generator injecting into fabric switch `switch`: a
/// constant-rate source without counters.
pub fn spawn_heartbeats_on(sim: &mut Simulator, switch: usize, cfg: HeartbeatConfig) {
    let tmpl = compile_template(sim, switch, cfg.port, &cfg.fields, 0);
    let flow = UdpFlow {
        switch,
        stop_ns: cfg.stop_ns,
        interval: cfg.interval_ns,
        tmpl,
        state: None,
    };
    push_constant_rate(sim, flow, cfg.start_ns);
}

// ---------------------------------------------------------------------------
// Scale flows — the bulk traffic engine behind the unscaled Fig. 14 run.
// ---------------------------------------------------------------------------

/// Configuration of a bulk scale-flow workload: `flows` Pareto-sized flows
/// between random host pairs, with starts and inter-packet gaps quantized
/// to `tick_ns` so same-tick arrivals across a whole switch batch into one
/// timing-wheel slot (drained by a single wake event).
#[derive(Clone, Debug)]
pub struct ScaleConfig {
    pub seed: u64,
    /// Number of flows to generate.
    pub flows: u32,
    /// Flows start inside `[0, duration_ns)`; a long one may end past it.
    pub duration_ns: Nanos,
    /// Pareto shape for the per-flow packet count (heavy tail).
    pub pareto_alpha: f64,
    pub min_pkts: u32,
    pub max_pkts: u32,
    pub payload_bytes: u32,
    /// Arrival quantum; larger ticks mean bigger same-slot batches.
    pub tick_ns: Nanos,
    /// Header instance carrying the address fields.
    pub header: String,
    pub src_field: String,
    pub dst_field: String,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            seed: 1,
            flows: 10_000,
            duration_ns: 1_000_000_000,
            pareto_alpha: 1.3,
            min_pkts: 4,
            max_pkts: 512,
            payload_bytes: 700,
            tick_ns: 1_000,
            header: "ip".into(),
            src_field: "src".into(),
            dst_field: "dst".into(),
        }
    }
}

/// One traffic endpoint: a host address behind `(switch, port)`.
#[derive(Clone, Copy, Debug)]
pub struct ScaleHost {
    pub switch: usize,
    pub port: PortId,
    pub addr: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct ShardStats {
    injected: u64,
    accepted: u64,
    live: u64,
    batches: u64,
    max_batch: u64,
}

/// Host-index bits of a schedule word, per end: the word is
/// `tick << 32 | src << (HOST_BITS + 1) | dst << 1 | last`.
const HOST_BITS: u32 = 15;

/// All scale-flow state of one injection switch: a shared compiled
/// template (slot 0 = src, slot 1 = dst) plus the shard's arrival
/// schedule. Exactly one `FlowWake` event is outstanding per shard — at
/// the schedule head — and its handler drains *every* due arrival in one
/// batch.
///
/// Scale flows are open-loop: every arrival time is `start + k·gap`,
/// fixed at spawn with no feedback from the fabric. That makes the whole
/// schedule static, so it is placed in tick order once, bucket by bucket as
/// it is drawn, and replayed with a cursor: a sequential scan, no
/// per-packet priority-queue ops. An arrival is one `u64` word decoded
/// against the shard's copy of the host table: 8 B per planned packet,
/// allocated at the schedule's exact length.
pub(crate) struct FlowShard {
    switch: usize,
    tmpl: PacketTemplate,
    tick: Nanos,
    hosts: Box<[ScaleHost]>,
    /// Materialized schedule, ordered by `(time, flow index)`.
    arrivals: Vec<u64>,
    /// Replay cursor into `arrivals`.
    next: usize,
    stats: ShardStats,
}

impl FlowShard {
    /// Schedule word `w` as `(time, source, destination, last packet)`.
    fn arrival(&self, w: u64) -> (Nanos, ScaleHost, ScaleHost, bool) {
        let host = |shift: u32| self.hosts[(w >> shift) as usize & ((1 << HOST_BITS) - 1)];
        let at = (w >> 32) * self.tick;
        (at, host(HOST_BITS + 1), host(1), w & 1 == 1)
    }
}

/// Aggregate scale-engine counters across all shards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScaleTotals {
    /// Packets handed to a switch so far.
    pub injected_pkts: u64,
    /// Packets the switch accepted (not dropped at ingress admission).
    pub accepted_pkts: u64,
    /// Flows with packets still to send.
    pub active_flows: u64,
    /// Wake events executed (each drains one same-time batch per shard).
    pub batches: u64,
    /// Largest single batch drained by one wake.
    pub max_batch: u64,
    /// Number of shards (injection switches).
    pub shards: usize,
    /// Bytes the shards' schedules hold: 8 per planned packet.
    pub schedule_bytes: u64,
}

/// Generate `cfg.flows` flows over `hosts` and register them with the
/// simulator, sharded by injection switch. Returns the total number of
/// packets the schedule will inject. Refuses hosts off the fabric and what
/// a schedule word cannot hold: more than 2^15 hosts, or a tick index past
/// 32 bits (the last arrival lies before `duration_ns + max_pkts·tick_ns`).
///
/// Deterministic: the same `(cfg, hosts)` produces the identical schedule,
/// shard layout, and event order on every run.
pub fn spawn_scale_flows(
    sim: &mut Simulator,
    cfg: &ScaleConfig,
    hosts: &[ScaleHost],
) -> Result<u64, String> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let on_fabric = hosts.iter().all(|h| h.switch < sim.num_switches());
    if !on_fabric || !(2..=1 << HOST_BITS).contains(&hosts.len()) {
        let most = 1 << HOST_BITS;
        return Err(format!("scale flows need 2 to {most} hosts on the fabric"));
    }
    let tick = cfg.tick_ns.max(1);
    let duration = cfg.duration_ns.max(tick);
    let min_pkts = cfg.min_pkts.max(1);
    let max_pkts = cfg.max_pkts.max(min_pkts);
    let ticks = (u64::from(max_pkts).checked_mul(tick))
        .and_then(|span| span.checked_add(duration))
        .ok_or("scale flows: duration_ns + max_pkts·tick_ns overflows u64")?
        / tick;
    if ticks > u64::from(u32::MAX) {
        return Err(format!("scale flows: {ticks} ticks overflow u32"));
    }

    // One shard per injection switch, created in first-appearance order of
    // `hosts` (deterministic given the caller's host list).
    let mut shard_of: Vec<Option<usize>> = vec![None; sim.num_switches()];
    let mut shards: Vec<FlowShard> = Vec::new();
    for h in hosts {
        if shard_of[h.switch].is_none() {
            let desc = PacketDesc::new(0)
                .field(&cfg.header, &cfg.src_field, 0)
                .field(&cfg.header, &cfg.dst_field, 0)
                .payload(cfg.payload_bytes);
            let tmpl = PacketTemplate::compile(&desc, sim.switch_at(h.switch).borrow().spec())?;
            shard_of[h.switch] = Some(shards.len());
            shards.push(FlowShard {
                switch: h.switch,
                tmpl,
                tick,
                hosts: hosts.into(),
                arrivals: Vec::new(),
                next: 0,
                stats: ShardStats::default(),
            });
        }
    }

    // The same draws twice: pass 1 counts each shard's arrivals per bucket
    // of ticks, which gives each bucket its start; pass 2 writes every word
    // at its bucket's cursor, in flow-creation order.
    let shift = bucket_shift(ticks, u64::from(cfg.flows) * u64::from(min_pkts));
    let mut at = vec![vec![0; ((ticks - 1) >> shift) as usize + 1]; shards.len()];
    let mut planned = 0;
    for pass in 0..2 {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for _ in 0..cfg.flows {
            let s = rng.gen_range(0..hosts.len());
            let mut d = rng.gen_range(0..hosts.len() - 1);
            if d >= s {
                d += 1; // src ≠ dst
            }
            // Pareto-tailed packet count.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let raw = f64::from(min_pkts) * u.powf(-1.0 / cfg.pareto_alpha.max(0.1));
            let count = u64::from(if raw >= f64::from(max_pkts) {
                max_pkts
            } else {
                (raw as u32).clamp(min_pkts, max_pkts)
            });
            // Start and gap in ticks, the gap capped so the whole flow
            // finishes inside the duration where it can.
            let start = rng.gen_range(0..duration) / tick;
            let gap = if count > 1 {
                let span_ticks = (duration - start * tick) / tick / (count - 1);
                rng.gen_range(1..=span_ticks.max(1))
            } else {
                1
            };
            let shard = shard_of[hosts[s].switch].expect("host switch has a shard");
            let (sh, at) = (&mut shards[shard], &mut at[shard]);
            let ends = (s as u64) << (HOST_BITS + 1) | (d as u64) << 1;
            for k in 0..count {
                let t = start + k * gap;
                let next = &mut at[(t >> shift) as usize];
                if pass == 1 {
                    sh.arrivals[*next] = t << 32 | ends | u64::from(k + 1 == count);
                }
                *next += 1;
            }
            sh.stats.live += u64::from(pass == 1);
        }
        if pass == 0 {
            for (sh, at) in shards.iter_mut().zip(&mut at) {
                let mut sum = 0;
                at.iter_mut().for_each(|n| (*n, sum) = (sum, sum + *n));
                (sh.arrivals, planned) = (vec![0; sum], planned + sum);
            }
        }
    }

    // Each cursor now ends its bucket. A stable sort of each on the tick
    // bits below its index gives the `(time, flow index)` order.
    for (mut sh, ends) in shards.into_iter().zip(at) {
        let mut start = 0;
        for end in ends {
            sort_by_tick(&mut sh.arrivals[start..end], shift);
            start = end;
        }
        let first = sh.arrivals.first().map(|&w| sh.arrival(w).0);
        let id = u32::try_from(sim.flows.scale.len()).expect("shard count fits u32");
        sim.flows.scale.push(Some(sh));
        if let Some(t) = first {
            sim.schedule_kind(t, EventKind::FlowWake { shard: id });
        }
    }
    Ok(planned as u64)
}

/// Tick shift of the buckets a shard's schedule is placed in, for a block
/// of `ticks` ticks sure to hold `words` words: the narrowest width that
/// makes at most one bucket per 2^10 of those words, and 2^10 buckets.
fn bucket_shift(ticks: u64, words: u64) -> u32 {
    let most = (words >> 10).clamp(1, 1 << 10);
    u64::BITS - ((ticks - 1) / most).leading_zeros()
}

/// Stable LSD radix sort of one bucket's schedule words by the low `bits`
/// bits of their tick index, the bits below the bucket index, eight bits a
/// pass through a scratch of the bucket's size.
fn sort_by_tick(words: &mut [u64], bits: u32) {
    let mut scratch = vec![0; words.len()];
    let (mut from, mut to) = (words, &mut scratch[..]);
    for low in (0..bits).step_by(8) {
        let digit = |w: u64| (w >> (32 + low)) as usize & ((1 << (bits - low).min(8)) - 1);
        let (mut at, mut sum) = ([0; 256], 0);
        from.iter().for_each(|&w| at[digit(w)] += 1);
        at.iter_mut().for_each(|n| (*n, sum) = (sum, sum + *n));
        for &w in from.iter() {
            to[at[digit(w)]] = w;
            at[digit(w)] += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    // An odd number of passes ends in `scratch`.
    if bits.div_ceil(8) % 2 == 1 {
        to.copy_from_slice(from);
    }
}

/// Drain every due arrival of one shard (the `EventKind::FlowWake`
/// handler): same-tick arrivals across the whole shard inject back-to-back
/// from one event, then a single wake is rescheduled at the next arrival.
pub(crate) fn flow_wake_event(sim: &mut Simulator, shard: u32) {
    let s = shard as usize;
    let mut sh = sim.flows.scale[s]
        .take()
        .expect("scale-shard/wake: shard checked out twice");
    let now = sim.now();
    let mut batch: u64 = 0;
    // The whole wake batch goes in under one borrow of the shard's switch.
    sim.inject_on(sh.switch, |sw, _| {
        while let Some(&w) = sh.arrivals.get(sh.next) {
            let (at, src, dst, last) = sh.arrival(w);
            if at > now {
                break;
            }
            sh.next += 1;
            sh.tmpl.set_value(0, u128::from(src.addr));
            sh.tmpl.set_value(1, u128::from(dst.addr));
            sh.tmpl.set_port(src.port);
            let ok = sw.inject_template(&sh.tmpl);
            sh.stats.injected += 1;
            if ok {
                sh.stats.accepted += 1;
            }
            batch += 1;
            if last {
                sh.stats.live -= 1;
            }
        }
    });
    sh.stats.batches += 1;
    sh.stats.max_batch = sh.stats.max_batch.max(batch);
    let next_wake = sh.arrivals.get(sh.next).map(|&w| sh.arrival(w).0);
    sim.flows.scale[s] = Some(sh);
    if let Some(t) = next_wake {
        sim.schedule_kind(t, EventKind::FlowWake { shard });
    }
}

/// Aggregate scale-engine counters (zeroed when no scale flows spawned).
pub fn scale_totals(sim: &Simulator) -> ScaleTotals {
    let mut t = ScaleTotals::default();
    for sh in sim.flows.scale.iter().flatten() {
        t.injected_pkts += sh.stats.injected;
        t.accepted_pkts += sh.stats.accepted;
        t.active_flows += sh.stats.live;
        t.batches += sh.stats.batches;
        t.max_batch = t.max_batch.max(sh.stats.max_batch);
        t.shards += 1;
        t.schedule_bytes += 8 * sh.arrivals.capacity() as u64;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_sim::{switch_from_source, Clock, SharedSwitch, Switch, SwitchConfig};

    const PROG: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
register hb_count { width : 64; instance_count : 32; }
action fwd() { modify_field(intr.egress_spec, 2); }
action count_hb() { count(hb_count, intr.ingress_port); }
table route { actions { fwd; } default_action : fwd(); }
table hb { actions { count_hb; } default_action : count_hb(); }
control ingress { apply(hb); apply(route); }
"#;

    fn mk(queue_bytes: u32) -> Simulator {
        let clock = Clock::new();
        let sw: Switch = switch_from_source(
            PROG,
            SwitchConfig {
                queue_capacity_bytes: queue_bytes,
                ..Default::default()
            },
            clock,
        )
        .unwrap();
        Simulator::new(SharedSwitch::new(sw))
    }

    fn ip_fields(src: u128) -> FieldTemplate {
        vec![
            ("ip".into(), "src".into(), src),
            ("ip".into(), "dst".into(), 1),
        ]
    }

    #[test]
    fn tcp_flow_sends_at_configured_rate() {
        let mut sim = mk(1 << 20);
        let flow = spawn_tcp(
            &mut sim,
            TcpConfig {
                fields: ip_fields(10),
                initial_rate_bps: 1_000_000_000, // 1 Gbps
                increase_bps: 0,
                payload_bytes: 1_250, // 10 µs per packet at 1 Gbps
                ..Default::default()
            },
        );
        sim.run_until(1_000_000); // 1 ms → ~100 packets
        let st = flow.borrow();
        assert!(
            (90..=110).contains(&st.sent_pkts),
            "sent {} packets",
            st.sent_pkts
        );
        assert_eq!(st.lost_pkts, 0);
    }

    #[test]
    fn tcp_flow_backs_off_on_loss_and_recovers() {
        // Tiny queue with a rate far above the 25 Gbps drain: must drop.
        let mut sim = mk(3_000);
        let flow = spawn_tcp(
            &mut sim,
            TcpConfig {
                fields: ip_fields(10),
                initial_rate_bps: 50_000_000_000,
                max_rate_bps: 50_000_000_000,
                increase_bps: 0,
                ..Default::default()
            },
        );
        sim.run_until(2_000_000);
        let st = flow.borrow();
        assert!(st.lost_pkts > 0, "expected drops");
        assert!(
            st.rate_bps < 50_000_000_000,
            "rate did not back off: {}",
            st.rate_bps
        );
    }

    #[test]
    fn tcp_additive_increase_without_loss() {
        let mut sim = mk(1 << 20);
        let flow = spawn_tcp(
            &mut sim,
            TcpConfig {
                fields: ip_fields(10),
                initial_rate_bps: 100_000_000,
                increase_bps: 50_000_000,
                rtt_ns: 100_000,
                ..Default::default()
            },
        );
        sim.run_until(1_000_000); // 10 RTTs
        let st = flow.borrow();
        assert!(
            st.rate_bps >= 100_000_000 + 8 * 50_000_000,
            "rate {}",
            st.rate_bps
        );
    }

    #[test]
    fn external_backoff_applies_once() {
        let mut sim = mk(1 << 20);
        let flow = spawn_tcp(
            &mut sim,
            TcpConfig {
                fields: ip_fields(10),
                initial_rate_bps: 1_000_000_000,
                increase_bps: 0,
                rtt_ns: 100_000,
                ..Default::default()
            },
        );
        flow.borrow_mut().backoff_factor = Some(0.5);
        sim.run_until(150_000); // one RTT tick
        assert_eq!(flow.borrow().rate_bps, 500_000_000);
        sim.run_until(450_000);
        assert_eq!(flow.borrow().rate_bps, 500_000_000);
    }

    #[test]
    fn udp_sender_ignores_losses() {
        let mut sim = mk(3_000);
        let udp = spawn_udp(
            &mut sim,
            UdpConfig {
                ingress_port: 0,
                fields: ip_fields(66),
                payload_bytes: 1_250,
                rate_bps: 50_000_000_000,
                start_ns: 0,
                stop_ns: None,
            },
        );
        sim.run_until(1_000_000);
        let st = udp.borrow();
        assert!(st.dropped_pkts > 0);
        // Rate never changes: sent count matches the configured rate
        // (1250 B @ 50 Gbps = 200 ns/pkt → ~5000 packets).
        assert!(st.sent_pkts > 4_000, "sent {}", st.sent_pkts);
    }

    #[test]
    fn flow_stops_at_stop_time() {
        let mut sim = mk(1 << 20);
        let flow = spawn_tcp(
            &mut sim,
            TcpConfig {
                fields: ip_fields(10),
                initial_rate_bps: 1_000_000_000,
                payload_bytes: 1_250,
                stop_ns: Some(500_000),
                ..Default::default()
            },
        );
        sim.run_until(2_000_000);
        let st = flow.borrow();
        assert!(st.stopped);
        assert!((40..=60).contains(&st.sent_pkts), "sent {}", st.sent_pkts);
    }

    #[test]
    fn heartbeats_counted_in_dataplane_until_port_fails() {
        let mut sim = mk(1 << 20);
        spawn_heartbeats(
            &mut sim,
            HeartbeatConfig {
                port: 7,
                fields: ip_fields(0),
                interval_ns: 1_000, // Ts = 1 µs, as in the paper
                start_ns: 0,
                stop_ns: None,
            },
        );
        sim.run_until(100_000);
        let count_at = |sim: &Simulator| {
            let sw = sim.switch().borrow();
            let r = sw.register_id("hb_count").unwrap();
            sw.register_read_range(r, 7, 7)[0].as_u64()
        };
        let c1 = count_at(&sim);
        assert!((95..=105).contains(&c1), "heartbeats {c1}");
        // Fail the link: counting stops.
        sim.switch().borrow_mut().port_set_up(7, false).unwrap();
        sim.run_until(200_000);
        let c2 = count_at(&sim);
        assert_eq!(c1, c2);
    }

    #[test]
    fn scale_flows_inject_every_planned_packet() {
        let mut sim = mk(1 << 24);
        let hosts: Vec<ScaleHost> = (0..4)
            .map(|i| ScaleHost {
                switch: 0,
                port: i as PortId,
                addr: 100 + i as u64,
            })
            .collect();
        let cfg = ScaleConfig {
            seed: 7,
            flows: 200,
            duration_ns: 1_000_000, // 1 ms
            ..Default::default()
        };
        let planned = spawn_scale_flows(&mut sim, &cfg, &hosts).unwrap();
        assert!(planned >= 200 * u64::from(cfg.min_pkts));
        sim.run_until(cfg.duration_ns + 1_000_000);
        let t = scale_totals(&sim);
        assert_eq!(t.injected_pkts, planned, "every planned packet injected");
        assert_eq!(t.active_flows, 0, "all flows finished inside duration");
        assert!(t.batches <= t.injected_pkts);
        assert!(t.max_batch >= 1);
        assert_eq!(t.shards, 1);
    }

    #[test]
    fn scale_flows_are_deterministic() {
        let run = || {
            let mut sim = mk(1 << 24);
            let hosts: Vec<ScaleHost> = (0..4)
                .map(|i| ScaleHost {
                    switch: 0,
                    port: i as PortId,
                    addr: 100 + i as u64,
                })
                .collect();
            let cfg = ScaleConfig {
                seed: 42,
                flows: 100,
                duration_ns: 500_000,
                ..Default::default()
            };
            spawn_scale_flows(&mut sim, &cfg, &hosts).unwrap();
            sim.run_until(1_000_000);
            let t = scale_totals(&sim);
            (t.injected_pkts, t.accepted_pkts, t.batches, sim.tx_count)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scale_flows_batch_same_tick_arrivals() {
        let mut sim = mk(1 << 24);
        let hosts: Vec<ScaleHost> = (0..8)
            .map(|i| ScaleHost {
                switch: 0,
                port: (i % 4) as PortId,
                addr: 100 + i as u64,
            })
            .collect();
        // A coarse tick forces many same-tick arrivals.
        let cfg = ScaleConfig {
            seed: 3,
            flows: 500,
            duration_ns: 100_000,
            tick_ns: 10_000,
            ..Default::default()
        };
        spawn_scale_flows(&mut sim, &cfg, &hosts).unwrap();
        sim.run_until(1_000_000);
        let t = scale_totals(&sim);
        assert!(
            t.batches < t.injected_pkts / 2,
            "expected batching: {} wakes for {} packets",
            t.batches,
            t.injected_pkts
        );
        assert!(t.max_batch > 1);
    }

    #[test]
    fn scale_flows_reject_single_host() {
        let mut sim = mk(1 << 20);
        let hosts = [ScaleHost {
            switch: 0,
            port: 0,
            addr: 1,
        }];
        assert!(spawn_scale_flows(&mut sim, &ScaleConfig::default(), &hosts).is_err());
    }

    /// `n` unlinked switches of `PROG`, queues deep enough to admit every
    /// packet of the blocks below.
    fn unlinked(n: usize) -> Simulator {
        let clock = Clock::new();
        let cfg = SwitchConfig {
            queue_capacity_bytes: 1 << 24,
            ..Default::default()
        };
        let switches = (0..n)
            .map(|_| {
                SharedSwitch::new(switch_from_source(PROG, cfg.clone(), clock.clone()).unwrap())
            })
            .collect();
        Simulator::fabric(switches, crate::Topology::new(n))
    }

    /// One arrival of the schedule as it was built before arrivals were
    /// packed into words: 32 bytes a packet, ordered by a stable sort.
    #[derive(Debug, PartialEq)]
    struct Arrival {
        at: Nanos,
        src: u64,
        dst: u64,
        port: PortId,
        last: bool,
    }

    /// That schedule, one list per shard, and each flow's packet count:
    /// the same draws, expanded into `Arrival`s and `sort_by_key`ed.
    fn reference(cfg: &ScaleConfig, hosts: &[ScaleHost]) -> (Vec<Vec<Arrival>>, Vec<u32>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tick = cfg.tick_ns.max(1);
        let duration = cfg.duration_ns.max(tick);
        let min_pkts = cfg.min_pkts.max(1);
        let max_pkts = cfg.max_pkts.max(min_pkts);
        let mut switches: Vec<usize> = Vec::new();
        for h in hosts {
            if !switches.contains(&h.switch) {
                switches.push(h.switch);
            }
        }
        let mut shards: Vec<Vec<Arrival>> = switches.iter().map(|_| Vec::new()).collect();
        let mut counts = Vec::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        for _ in 0..cfg.flows {
            let s = rng.gen_range(0..hosts.len());
            let mut d = rng.gen_range(0..hosts.len() - 1);
            if d >= s {
                d += 1;
            }
            let (src, dst) = (hosts[s], hosts[d]);
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let raw = f64::from(min_pkts) * u.powf(-1.0 / cfg.pareto_alpha.max(0.1));
            let count = if raw >= f64::from(max_pkts) {
                max_pkts
            } else {
                (raw as u32).clamp(min_pkts, max_pkts)
            };
            let start = rng.gen_range(0..duration) / tick * tick;
            let gap = if count > 1 {
                let span_ticks = (duration - start) / tick / u64::from(count - 1);
                rng.gen_range(1..=span_ticks.max(1)) * tick
            } else {
                tick
            };
            let shard = switches.iter().position(|&sw| sw == src.switch).unwrap();
            for k in 0..count {
                shards[shard].push(Arrival {
                    at: start + u64::from(k) * gap,
                    src: src.addr,
                    dst: dst.addr,
                    port: src.port,
                    last: k + 1 == count,
                });
            }
            counts.push(count);
        }
        for sh in &mut shards {
            sh.sort_by_key(|a| a.at);
        }
        (shards, counts)
    }

    /// `n` hosts, host `i` behind switch `switch(i)` on port `i % 4`.
    fn hosts_on(n: usize, switch: impl Fn(usize) -> usize) -> Vec<ScaleHost> {
        (0..n)
            .map(|i| ScaleHost {
                switch: switch(i),
                port: (i % 4) as PortId,
                addr: 100 + i as u64,
            })
            .collect()
    }

    /// The packed schedule decodes to the reference's `(at, src, dst,
    /// port, last)` sequence on every shard, and replaying it gives the
    /// totals that sequence predicts — mid-run and at the end — over
    /// seeds, 1–4 shards, ticks from 1 ns to 10 µs, 200-tick blocks (ties
    /// everywhere) and 2^30-tick ones, with one-packet flows, flows at the
    /// Pareto cap, and flows that run past `duration_ns`. Those blocks fit
    /// in one bucket; the last five cases are sized for the buckets' edges:
    /// arrivals on the last tick of one bucket and the first of the next,
    /// a near-empty shard whose empty buckets lie between full ones, and
    /// tick indices up to `u32::MAX`, in one bucket and in several.
    #[test]
    fn packed_schedule_replays_the_sorted_arrival_list() {
        use rand::{Rng, SeedableRng};
        let mut seeds = rand::rngs::StdRng::seed_from_u64(46);
        let small = |tick| ScaleConfig {
            flows: 150,
            pareto_alpha: 0.8,
            min_pkts: 1,
            max_pkts: 64,
            tick_ns: tick,
            ..Default::default()
        };
        let mut cases: Vec<(Vec<ScaleHost>, ScaleConfig)> = (0..24)
            .map(|case| {
                let shards = 1 + case % 4;
                let tick = [1, 1_000, 10_000][case / 4 % 3];
                let cfg = ScaleConfig {
                    // Short blocks tie and overrun; long ones need all four
                    // radix digits of the tick index.
                    duration_ns: [200, 1 << 30][case / 12] * tick,
                    ..small(tick)
                };
                (hosts_on(8, |i| i % shards), cfg)
            })
            .collect();
        let dense = |shards, duration_ns, flows| {
            let cfg = ScaleConfig {
                duration_ns,
                flows,
                payload_bytes: 64, // every packet fits the queues
                ..small(1)
            };
            (hosts_on(8, move |i| i % shards), cfg)
        };
        cases.push(dense(1, 1 << 12, 4_000));
        cases.push(dense(2, 1 << 14, 6_000));
        // Host 0 of 10 000 alone behind switch 1: a few one- or two-packet
        // flows, bucketed as finely as switch 0's tens of thousands.
        let sparse = ScaleConfig {
            flows: 40_000,
            duration_ns: 1 << 16,
            pareto_alpha: 4.0,
            max_pkts: 2,
            payload_bytes: 64,
            ..small(1)
        };
        cases.push((hosts_on(10_000, |i| usize::from(i == 0)), sparse));
        // Tick indices up to `u32::MAX - 1`: in one bucket, then in two
        // split on the tick's top bit.
        cases.push(dense(1, u64::from(u32::MAX) - 64, 40));
        cases.push(dense(1, u64::from(u32::MAX) - 64, 4_000));

        let (mut single, mut capped, mut overrun) = (0, 0, 0);
        let (mut one_bucket, mut edges, mut holes, mut top) = (0, 0, 0, 0);
        for (case, (hosts, mut cfg)) in cases.into_iter().enumerate() {
            cfg.seed = seeds.gen();
            let shards = hosts.iter().map(|h| h.switch).max().unwrap() + 1;
            let mut sim = unlinked(shards);
            let planned = spawn_scale_flows(&mut sim, &cfg, &hosts).unwrap();
            let (want, counts) = reference(&cfg, &hosts);
            let got: Vec<Vec<Arrival>> = (sim.flows.scale.iter().flatten())
                .map(|sh| {
                    (sh.arrivals.iter())
                        .map(|&w| {
                            let (at, src, dst, last) = sh.arrival(w);
                            let (src, dst, port) = (src.addr, dst.addr, src.port);
                            Arrival {
                                at,
                                src,
                                dst,
                                port,
                                last,
                            }
                        })
                        .collect()
                })
                .collect();
            assert_eq!(got, want, "case {case}");
            assert_eq!(planned, counts.iter().map(|&c| u64::from(c)).sum::<u64>());
            single += counts.iter().filter(|&&c| c == 1).count();
            capped += counts.iter().filter(|&&c| c == cfg.max_pkts).count();
            overrun += want
                .iter()
                .flatten()
                .filter(|a| a.at >= cfg.duration_ns)
                .count();

            // Which bucket edges the case crossed.
            let ticks = cfg.duration_ns / cfg.tick_ns + u64::from(cfg.max_pkts);
            let shift = bucket_shift(ticks, u64::from(cfg.flows * cfg.min_pkts));
            one_bucket += usize::from((ticks - 1) >> shift == 0);
            for sh in &want {
                let tick = |a: &Arrival| a.at / cfg.tick_ns;
                let mut filled = vec![false; ((ticks - 1) >> shift) as usize + 1];
                for a in sh {
                    filled[(tick(a) >> shift) as usize] = true;
                }
                let first = filled.iter().position(|&f| f).unwrap_or(0);
                let last = filled.iter().rposition(|&f| f).unwrap_or(0);
                holes += filled[first..last].iter().filter(|&&f| !f).count();
                edges += (sh.windows(2))
                    .filter(|p| (tick(&p[0]) >> shift) + 1 == tick(&p[1]) >> shift)
                    .filter(|p| tick(&p[0]) + 1 == tick(&p[1]))
                    .count();
                top += usize::from(sh.iter().any(|a| tick(a) >> 31 == 1));
            }

            let expect = |until: Nanos| {
                let mut t = ScaleTotals {
                    active_flows: counts.len() as u64,
                    shards,
                    schedule_bytes: 8 * planned,
                    ..Default::default()
                };
                for sh in &want {
                    let due = &sh[..sh.partition_point(|a| a.at <= until)];
                    for batch in due.chunk_by(|a, b| a.at == b.at) {
                        t.batches += 1;
                        t.max_batch = t.max_batch.max(batch.len() as u64);
                    }
                    t.injected_pkts += due.len() as u64;
                    t.active_flows -= due.iter().filter(|a| a.last).count() as u64;
                }
                t.accepted_pkts = t.injected_pkts;
                t
            };
            for until in [cfg.duration_ns / 2, cfg.duration_ns + 100 * cfg.tick_ns] {
                sim.run_until(until);
                assert_eq!(scale_totals(&sim), expect(until), "case {case} at {until}");
            }
            assert_eq!(scale_totals(&sim).active_flows, 0);
        }
        assert!(
            single > 0 && capped > 0 && overrun > 0,
            "{single} {capped} {overrun}"
        );
        assert!(
            one_bucket > 24 && edges > 0 && holes > 0 && top > 1,
            "{one_bucket} {edges} {holes} {top}"
        );
    }

    fn two_hosts() -> [ScaleHost; 2] {
        [0, 1].map(|port| ScaleHost {
            switch: 0,
            port,
            addr: 100 + u64::from(port),
        })
    }

    #[test]
    fn scale_flows_reject_a_tick_index_past_32_bits() {
        // 512 packets a tick apart after the last start: the word's tick
        // index reaches `duration + 512` ticks.
        let cfg = |duration_ns| ScaleConfig {
            flows: 0,
            duration_ns,
            tick_ns: 1,
            ..Default::default()
        };
        let fits = u64::from(u32::MAX) - 512;
        let mut sim = mk(1 << 20);
        assert_eq!(spawn_scale_flows(&mut sim, &cfg(fits), &two_hosts()), Ok(0));
        let err = spawn_scale_flows(&mut sim, &cfg(fits + 1), &two_hosts()).unwrap_err();
        assert!(err.contains("ticks overflow u32"), "{err}");
    }

    #[test]
    fn scale_flows_reject_hosts_a_word_cannot_index() {
        let hosts = |n: usize| -> Vec<ScaleHost> {
            (0..n as u64)
                .map(|addr| ScaleHost {
                    switch: 0,
                    port: 0,
                    addr,
                })
                .collect()
        };
        let cfg = ScaleConfig {
            flows: 10,
            ..Default::default()
        };
        let mut sim = mk(1 << 20);
        assert!(spawn_scale_flows(&mut sim, &cfg, &hosts(1 << HOST_BITS)).is_ok());
        let err = spawn_scale_flows(&mut sim, &cfg, &hosts((1 << HOST_BITS) + 1)).unwrap_err();
        assert!(err.contains("hosts"), "{err}");
        let mut elsewhere = two_hosts();
        elsewhere[1].switch = 1;
        let err = spawn_scale_flows(&mut sim, &cfg, &elsewhere).unwrap_err();
        assert!(err.contains("hosts on the fabric"), "{err}");
    }

    #[test]
    fn scale_flows_reject_a_horizon_past_u64() {
        let mut sim = mk(1 << 20);
        for (duration_ns, tick_ns) in [(u64::MAX - 1_000, 1_000), (1_000, u64::MAX / 2)] {
            let cfg = ScaleConfig {
                duration_ns,
                tick_ns,
                ..Default::default()
            };
            let err = spawn_scale_flows(&mut sim, &cfg, &two_hosts()).unwrap_err();
            assert!(err.contains("overflows u64"), "{err}");
        }
    }
}
