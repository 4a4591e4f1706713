//! The discrete-event simulator core.
//!
//! A [`Simulator`] owns the shared virtual clock, the fabric's switches,
//! and an event queue — a hierarchical timing wheel
//! ([`crate::wheel::TimingWheel`]) of typed [`EventKind`]s. The hot
//! packet/flow/wire events are enum variants (no per-event allocation);
//! arbitrary closures remain as the cold-path variant for experiment
//! harnesses. Execution is fully deterministic: events tie-break by
//! schedule order exactly as the historical `BinaryHeap` core did, and
//! the per-event transmit drain visits switches in index order, so link
//! deliveries are totally ordered by `(time, switch_id, seq)`.
//!
//! With a multi-switch [`Topology`], a packet transmitted out a linked
//! port becomes an rx event on the peer switch after the link's wire
//! delay; packets leaving unlinked ports exit the fabric into the
//! transmit log. Wire deliveries move the transmitted PHV itself and
//! re-materialize it on the peer through a cached
//! [`TransferMap`] — no per-hop name round-trip. While it is on the wire
//! the PHV is parked in the simulator's in-flight slab and the event names
//! it by slot, so the wheel moves small entries.

use crate::flows::FlowRegistry;
use crate::topo::{Endpoint, Link, Topology};
use crate::wheel::TimingWheel;
use mantis_telemetry::Telemetry;
use rmt_sim::{
    Clock, Nanos, Phv, PhvPool, PortId, SharedSwitch, Switch, TransferMap, TxPacket, PHV_POOL_CAP,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

pub(crate) type EventFn = Box<dyn FnOnce(&mut Simulator)>;

/// A scheduled event. The hot packet/flow/wire events are typed variants
/// dispatched without allocation or indirection; everything else rides in
/// [`EventKind::Closure`].
pub(crate) enum EventKind {
    /// Cold path: an arbitrary boxed closure.
    Closure(EventFn),
    /// A packet on a fabric link: the PHV parked in in-flight slot `slot`
    /// (frozen at transmit time) travels from switch `src` to `dest`,
    /// entering at `port` at the event's time.
    WireDeliver {
        src: u32,
        dest: u32,
        port: PortId,
        slot: u32,
    },
    /// One TCP flow's next packet-send (`gen` guards stale reschedules).
    TcpSend { flow: u32, gen: u64 },
    /// One TCP flow's periodic AIMD rate tick.
    TcpTick { flow: u32, nominal: Nanos },
    /// One constant-rate source's (UDP sender's or heartbeat source's)
    /// periodic send.
    UdpSend { flow: u32, nominal: Nanos },
    /// Drain every due arrival of scale-flow shard `shard` in one batch.
    FlowWake { shard: u32 },
}

// A wheel entry is this plus its `(at, seq)` key: keep it small, it is
// what every schedule, cascade and heap sift moves.
const _: () = assert!(std::mem::size_of::<EventKind>() <= 32);

/// The PHVs of packets on fabric wires, each parked in a slot until its
/// [`EventKind::WireDeliver`] fires. Freed slots are reused, so the slab
/// grows to the in-flight high-water mark and then allocates nothing.
#[derive(Default)]
struct InFlight {
    slots: Vec<Option<Phv>>,
    free: Vec<u32>,
}

impl InFlight {
    fn park(&mut self, phv: Phv) -> u32 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 packets in flight")
        });
        self.slots[slot as usize] = Some(phv);
        slot
    }

    fn take(&mut self, slot: u32) -> Phv {
        self.free.push(slot);
        self.slots[slot as usize]
            .take()
            .expect("invariant: a wire event's slot holds its packet")
    }

    /// Packets parked right now.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Counted accounting of the drain, and a model of a shard schedule.
///
/// The work unit is one packet served by a pump. `critical_units` models
/// splitting each drain's visits over `workers` shards, switch `i` to
/// shard `i % workers`: per drain, a shard's load is the work of the
/// switches it owns, and the makespan is the largest load (the whole
/// drain's work at one shard). So `speedup() = work / makespan` says how
/// well that schedule would balance packets: counted, byte-reproducible
/// across runs and hosts, and not a measurement — every drain runs
/// inline, on one thread, whatever `workers` says.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParStats {
    /// Shard count of the modelled schedule ([`Simulator::set_workers`]).
    pub workers: usize,
    /// Total drains executed.
    pub drains: u64,
    /// Total packets served by pumps.
    pub work_units: u64,
    /// Sum over drains of the most loaded shard's work.
    pub critical_units: u64,
    /// Times a drain borrowed a switch to look at it.
    pub switch_visits: u64,
    /// Pumps that served no packet. The readiness index keeps this at
    /// zero: a switch is pumped only once a queue head of its is due.
    pub zero_serve_pumps: u64,
}

impl ParStats {
    /// Modelled critical-path speedup (1.0 at one shard or when idle).
    pub fn speedup(&self) -> f64 {
        if self.critical_units == 0 {
            1.0
        } else {
            self.work_units as f64 / self.critical_units as f64
        }
    }
}

/// Readiness-index entry of a switch with nothing queued.
const IDLE: Nanos = Nanos::MAX;
/// Readiness-index entry of a switch whose state must be looked up.
const UNKNOWN: Nanos = 0;

/// `sw`'s readiness-index entry, read under its borrow: [`IDLE`], or the
/// time its earliest queue head can transmit — held one short of the
/// horizon, so that a head due at `u64::MAX` is not mistaken for idle (it
/// is then looked at, and skipped, one nanosecond early).
#[inline]
fn ready_entry(sw: &Switch) -> Nanos {
    if sw.tm_queued() == 0 {
        IDLE
    } else {
        sw.next_ready_at().min(IDLE - 1)
    }
}

/// The event-driven simulator.
pub struct Simulator {
    clock: Clock,
    switches: Vec<SharedSwitch>,
    topo: Topology,
    wheel: TimingWheel<EventKind>,
    next_seq: u64,
    /// Per-switch registry of typed flow state (TCP/UDP/heartbeat/scale),
    /// indexed by the ids carried in flow [`EventKind`]s.
    pub(crate) flows: FlowRegistry,
    /// `peer_cache[i][port]` resolves a transmit to the peer endpoint and
    /// link without scanning the topology per packet. Direct-indexed by
    /// port (fabric port numbers are small and dense) — a hash lookup
    /// here was measurable at millions of packets per second.
    peer_cache: Vec<Vec<Option<(Endpoint, Link)>>>,
    /// Lazily built `(src, dest)` → transfer map cache for wire
    /// deliveries.
    xfer: Vec<Vec<Option<Arc<TransferMap>>>>,
    /// One bit per switch (word `i/64`, bit `i%64`): set while the
    /// switch may have queued packets, so the drain walks only flagged
    /// switches in index order instead of scanning the whole fabric
    /// after every event.
    dirty: Vec<u64>,
    /// The drain's readiness index: per switch, the virtual time its
    /// earliest queue head can transmit ([`Switch::next_ready_at`]), as
    /// of the last borrow this simulator took — an inject, a wire
    /// delivery, a drain visit; only
    /// [`note_ready`](Simulator::note_ready) writes it. [`IDLE`]: nothing
    /// queued. [`UNKNOWN`]: code this simulator does not see into (a
    /// closure event, the caller between runs) may have touched the
    /// switch, so the next drain looks
    /// ([`mark_all_busy`](Simulator::mark_all_busy)). A drain visits
    /// switch `i` only once `now` has reached `ready_at[i]`.
    ready_at: Vec<Nanos>,
    /// One PHV freelist per distinct `(fields, headers)` shape of the
    /// fabric's specs, shared by every switch of that shape: a buffer
    /// parked where a packet exits is there for the next injection
    /// anywhere. Fixed at construction.
    freelists: Vec<Rc<RefCell<PhvPool>>>,
    /// Index into `freelists` of each switch's freelist.
    freelist_of: Vec<usize>,
    /// Packets on fabric wires.
    in_flight: InFlight,
    /// Packets that exited the fabric (transmitted out an *unlinked*
    /// port), tagged with the switch that emitted them; kept until taken
    /// by the experiment (capped to avoid unbounded growth when unused).
    tx_log: VecDeque<(usize, TxPacket)>,
    /// Cap on `tx_log` length; older packets are discarded first.
    pub tx_log_cap: usize,
    /// Reusable due-set buffer of the drain.
    due_scratch: Vec<usize>,
    /// Reusable transmit-batch buffer for visits; refilled per pump so
    /// the pump → route handoff never allocates at steady state.
    batch_scratch: Vec<(TxPacket, u32)>,
    /// Per-shard work of the current drain, for [`ParStats`]' model;
    /// one entry per modelled shard.
    shard_load: Vec<u64>,
    /// Count of all packets ever transmitted by any switch, including
    /// hops over internal fabric links (not capped).
    pub tx_count: u64,
    pub tx_bytes: u64,
    /// Per-switch transmit accounting (same units as `tx_count`/`tx_bytes`).
    tx_count_per_switch: Vec<u64>,
    tx_bytes_per_switch: Vec<u64>,
    next_flow_id: u64,
    par_stats: ParStats,
    /// Drain through [`drain_property`]'s index-free reference instead.
    #[cfg(test)]
    reference_drain: bool,
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.clock.now())
            .field("switches", &self.switches.len())
            .field("pending_events", &self.wheel.len())
            .finish()
    }
}

impl Simulator {
    /// A single-switch simulator — the 1-node special case of
    /// [`Simulator::fabric`] with the trivial topology.
    pub fn new(switch: SharedSwitch) -> Self {
        Simulator::fabric(vec![switch], Topology::single())
    }

    /// A multi-switch fabric: `switches[i]` is switch `i` of `topo`. All
    /// switches must share one virtual clock (fabric builders construct
    /// them that way).
    ///
    /// # Panics
    /// Panics when the switch count does not match the topology.
    pub fn fabric(switches: Vec<SharedSwitch>, topo: Topology) -> Self {
        assert!(
            switches.len() == topo.num_switches(),
            "fabric has {} switches but the topology names {}",
            switches.len(),
            topo.num_switches()
        );
        let clock = switches[0].borrow().clock().clone();
        let n = switches.len();
        // One PHV freelist per spec shape, capped at its members' caps
        // summed; attaching it moves in what each member had parked.
        let mut shapes = Vec::new();
        let freelist_of: Vec<usize> = switches
            .iter()
            .map(|s| {
                let sw = s.borrow();
                let shape = (sw.spec().fields.len(), sw.spec().headers.len());
                shapes.iter().position(|&k| k == shape).unwrap_or_else(|| {
                    shapes.push(shape);
                    shapes.len() - 1
                })
            })
            .collect();
        let freelists: Vec<_> = (0..shapes.len())
            .map(|k| {
                let members = freelist_of.iter().filter(|&&f| f == k).count();
                Rc::new(RefCell::new(PhvPool::new(PHV_POOL_CAP * members)))
            })
            .collect();
        for (s, &k) in switches.iter().zip(&freelist_of) {
            s.borrow_mut().share_phv_pool(freelists[k].clone());
        }
        let mut peer_cache: Vec<Vec<Option<(Endpoint, Link)>>> = vec![Vec::new(); n];
        for link in topo.links() {
            for (me, peer) in [(link.a, link.b), (link.b, link.a)] {
                let slots = &mut peer_cache[me.switch];
                let idx = usize::from(me.port);
                if slots.len() <= idx {
                    slots.resize(idx + 1, None);
                }
                slots[idx] = Some((peer, *link));
            }
        }
        Simulator {
            clock,
            switches,
            topo,
            wheel: TimingWheel::new(),
            next_seq: 0,
            flows: FlowRegistry::default(),
            peer_cache,
            xfer: vec![vec![None; n]; n],
            dirty: (0..n.div_ceil(64))
                .map(|w| {
                    let bits = n - w * 64;
                    if bits >= 64 {
                        !0
                    } else {
                        (1u64 << bits) - 1
                    }
                })
                .collect(),
            ready_at: vec![UNKNOWN; n],
            freelists,
            freelist_of,
            in_flight: InFlight::default(),
            tx_log: VecDeque::new(),
            tx_log_cap: 1 << 20,
            due_scratch: Vec::new(),
            batch_scratch: Vec::new(),
            shard_load: vec![0],
            tx_count: 0,
            tx_bytes: 0,
            tx_count_per_switch: vec![0; n],
            tx_bytes_per_switch: vec![0; n],
            next_flow_id: 0,
            par_stats: ParStats {
                workers: 1,
                ..ParStats::default()
            },
            #[cfg(test)]
            reference_drain: false,
        }
    }

    /// Set the shard count [`ParStats`] models, clamped to
    /// `[1, num_switches]`. It changes no execution: every drain runs
    /// inline (DESIGN.md §12).
    pub fn set_workers(&mut self, workers: usize) {
        let w = workers.clamp(1, self.switches.len().max(1));
        self.par_stats.workers = w;
        self.shard_load = vec![0; w];
    }

    pub fn workers(&self) -> usize {
        self.par_stats.workers
    }

    /// The drain's accounting so far (work units, modelled makespan,
    /// derived speedup).
    pub fn par_stats(&self) -> ParStats {
        self.par_stats
    }

    /// The fabric's telemetry handle (disabled unless a testbed attached
    /// one via `Switch::set_telemetry`). Flow sources use it to publish
    /// per-flow rate gauges and drop events.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.switches[0].borrow().telemetry().clone()
    }

    /// Allocate a stable id for a spawned flow (used in telemetry names).
    pub fn alloc_flow_id(&mut self) -> u64 {
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        id
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// Switch 0 — *the* switch of a single-switch testbed.
    pub fn switch(&self) -> &SharedSwitch {
        &self.switches[0]
    }

    /// Switch `i` of the fabric.
    pub fn switch_at(&self, i: usize) -> &SharedSwitch {
        &self.switches[i]
    }

    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Packets transmitted by switch `i` (including over fabric links).
    pub fn tx_count_on(&self, i: usize) -> u64 {
        self.tx_count_per_switch[i]
    }

    /// Bytes transmitted by switch `i` (including over fabric links).
    pub fn tx_bytes_on(&self, i: usize) -> u64 {
        self.tx_bytes_per_switch[i]
    }

    /// Schedule a one-shot event at absolute time `at` (events in the past
    /// run at the current time).
    pub fn schedule(&mut self, at: Nanos, f: impl FnOnce(&mut Simulator) + 'static) {
        self.schedule_kind(at, EventKind::Closure(Box::new(f)));
    }

    /// Schedule a typed event (the allocation-free hot path).
    pub(crate) fn schedule_kind(&mut self, at: Nanos, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.schedule(at, seq, kind);
    }

    /// Schedule `f` every `interval` starting at `start`; stops when `f`
    /// returns `false`.
    ///
    /// The period is *nominal*: the next firing is scheduled at
    /// `previous_nominal + interval` even if event execution lagged behind
    /// (e.g. a long control-plane operation advanced the clock). This
    /// models traffic sources that keep their rate while the switch CPU is
    /// busy — lagging firings execute back-to-back to catch up.
    pub fn schedule_periodic(
        &mut self,
        start: Nanos,
        interval: Nanos,
        f: impl FnMut(&mut Simulator) -> bool + 'static,
    ) {
        fn step(
            sim: &mut Simulator,
            mut f: impl FnMut(&mut Simulator) -> bool + 'static,
            interval: Nanos,
            nominal: Nanos,
        ) {
            if f(sim) {
                // A nominal period that would pass the u64 horizon ends
                // the chain: rescheduling at a clamped time would fire
                // the same instant forever.
                let Some(next) = nominal.checked_add(interval.max(1)) else {
                    return;
                };
                sim.schedule(next, move |s| step(s, f, interval, next));
            }
        }
        self.schedule(start, move |s| step(s, f, interval, start));
    }

    /// Run all events with `at <= until`, then advance the clock to
    /// `until`.
    pub fn run_until(&mut self, until: Nanos) {
        // External code may have injected packets directly between runs.
        self.mark_all_busy();
        loop {
            while let Some((at, _seq, kind)) = self.wheel.pop_due(until) {
                self.clock.advance_to(at);
                self.dispatch(at, kind);
                self.drain();
            }
            self.clock.advance_to(until);
            self.drain();
            // The horizon drain may itself have put packets on a fabric
            // link with an arrival inside the horizon — deliver those too
            // before handing control back.
            if !self.wheel.has_due(until) {
                break;
            }
        }
    }

    /// Execute one event, scheduled for `at`.
    fn dispatch(&mut self, at: Nanos, kind: EventKind) {
        match kind {
            EventKind::Closure(f) => {
                // A closure may inject into any switch.
                self.mark_all_busy();
                f(self);
            }
            EventKind::WireDeliver {
                src,
                dest,
                port,
                slot,
            } => {
                let phv = self.in_flight.take(slot);
                self.deliver_wire(src as usize, dest as usize, port, at, phv)
            }
            EventKind::TcpSend { flow, gen } => crate::flows::tcp_send_event(self, flow, gen),
            EventKind::TcpTick { flow, nominal } => {
                crate::flows::tcp_tick_event(self, flow, nominal)
            }
            EventKind::UdpSend { flow, nominal } => {
                crate::flows::udp_send_event(self, flow, nominal)
            }
            EventKind::FlowWake { shard } => crate::flows::flow_wake_event(self, shard),
        }
    }

    /// Deliver a wire packet: materialize the frozen sender PHV on the
    /// destination switch through the cached transfer map, then recycle
    /// the sender-side buffer.
    fn deliver_wire(&mut self, src: usize, dest: usize, port: PortId, arrival: Nanos, phv: Phv) {
        self.ensure_transfer_map(src, dest);
        let map = self.xfer[src][dest].as_deref().expect("just built");
        let mut sw = self.switches[dest].borrow_mut();
        if map.is_identity() {
            // One wire layout on both ends (every fabric hop of the shipped
            // programs): the buffer itself crosses the wire, rebased onto
            // the receiver's program — the state a copy into a fresh PHV
            // would have produced, minus the copy.
            let mut phv = phv;
            phv.rebase(port, sw.spec());
            sw.inject_phv_at(phv, arrival);
        } else {
            let mut dst_phv = self.freelist(dest).borrow_mut().take(sw.spec());
            map.apply(&phv, &mut dst_phv, port, sw.spec());
            sw.inject_phv_at(dst_phv, arrival);
            self.freelist(src).borrow_mut().put(phv);
        }
        let ready = ready_entry(&sw);
        drop(sw);
        self.note_ready(dest, ready);
    }

    /// Switch `i`'s PHV freelist, shared with every switch of its shape.
    #[inline]
    fn freelist(&self, i: usize) -> &RefCell<PhvPool> {
        &self.freelists[self.freelist_of[i]]
    }

    /// Build the `(src, dest)` transfer map on first use. Kept separate
    /// from the lookup so the identity fast path can consult the cached
    /// map without cloning the `Arc` per delivery.
    fn ensure_transfer_map(&mut self, src: usize, dest: usize) {
        if self.xfer[src][dest].is_none() {
            let s = self.switches[src].borrow();
            let d = self.switches[dest].borrow();
            self.xfer[src][dest] = Some(Arc::new(TransferMap::build(s.spec(), d.spec())));
        }
    }

    fn mark_all_busy(&mut self) {
        let n = self.switches.len();
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let bits = n - w * 64;
            *word = if bits >= 64 { !0 } else { (1u64 << bits) - 1 };
        }
        self.ready_at.fill(UNKNOWN);
    }

    /// Record switch `i`'s readiness entry, read under the borrow that
    /// just changed it: with something queued the switch is in the drain's
    /// set, due a visit at that time; with nothing queued it is out of it.
    /// So a flagged switch's entry is never [`IDLE`].
    #[inline]
    fn note_ready(&mut self, i: usize, ready: Nanos) {
        self.ready_at[i] = ready;
        let bit = 1u64 << (i % 64);
        if ready != IDLE {
            self.dirty[i / 64] |= bit;
        } else {
            self.dirty[i / 64] &= !bit;
        }
    }

    /// Inject into switch `i` under one borrow: `body` gets the held
    /// switch and the flow registry (where the typed flows keep their
    /// templates). The switch's ready time is cached on the way out, so the
    /// drain that follows knows whether and when to come back without
    /// borrowing the switch to ask.
    #[inline]
    pub(crate) fn inject_on<R>(
        &mut self,
        i: usize,
        body: impl FnOnce(&mut Switch, &FlowRegistry) -> R,
    ) -> R {
        let mut sw = self.switches[i].borrow_mut();
        let out = body(&mut sw, &self.flows);
        let ready = ready_entry(&sw);
        drop(sw);
        self.note_ready(i, ready);
        out
    }

    /// Run for `dur` from the current time (clamped to the u64 horizon).
    pub fn run_for(&mut self, dur: Nanos) {
        let until = self.now().saturating_add(dur);
        self.run_until(until);
    }

    /// The drain `run_until` runs after every event, in two steps.
    ///
    /// 1. The *due set* is read off the readiness index, no switch
    ///    borrowed: a flagged switch is due once the clock has reached its
    ///    cached ready time. Everything else is skipped outright — an idle
    ///    pump has no side effects, so skipping is byte-exact.
    /// 2. Every due switch, in index order, is visited under its borrow:
    ///    pumped if a queue head is due (queued packets whose egress/wire
    ///    time has not arrived make a pump a provable no-op), and what it
    ///    transmitted moved onto the batch with frame lengths. Then, before
    ///    the next switch is visited, the index takes its new entry and the
    ///    batch is routed. So every visit either serves a packet or
    ///    refreshes a stale entry of the index, and deliveries keep the
    ///    total `(time, switch_id, seq)` order that is the fabric
    ///    determinism contract.
    fn drain(&mut self) {
        #[cfg(test)]
        if self.reference_drain {
            return self.drain_reference();
        }
        self.par_stats.drains += 1;
        let now = self.clock.now();
        let mut due = std::mem::take(&mut self.due_scratch);
        for (w, &flagged) in self.dirty.iter().enumerate() {
            let mut word = flagged;
            while word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                // Not due: the switch stays flagged and is looked at
                // once the clock reaches its ready time.
                if self.ready_at[i] <= now {
                    due.push(i);
                }
            }
        }
        if !due.is_empty() {
            // The scratch buffer moves out of `self` so that filling it can
            // overlap the switch borrow; its capacity is kept across drains.
            let mut batch = std::mem::take(&mut self.batch_scratch);
            self.shard_load.fill(0);
            let shards = self.shard_load.len();
            for &i in &due {
                let mut sw = self.switches[i].borrow_mut();
                let pumped = sw.tm_queued() > 0 && sw.next_ready_at() <= now;
                let mut served = 0;
                if pumped {
                    served = sw.pump();
                    sw.drain_transmitted_with_len(&mut batch);
                }
                let ready = ready_entry(&sw);
                drop(sw);
                self.shard_load[i % shards] += served;
                self.par_stats.switch_visits += 1;
                self.par_stats.zero_serve_pumps += u64::from(pumped && served == 0);
                self.note_ready(i, ready);
                if !batch.is_empty() {
                    self.route_batch(i, &mut batch);
                }
            }
            self.batch_scratch = batch;
            self.par_stats.work_units += self.shard_load.iter().sum::<u64>();
            self.par_stats.critical_units += self.shard_load.iter().max().copied().unwrap_or(0);
        }
        due.clear();
        self.due_scratch = due;
    }

    /// Deliver one switch's transmit batch: linked ports become rx events
    /// on the peer after the wire delay, unlinked ports exit to the log.
    fn route_batch(&mut self, i: usize, batch: &mut Vec<(TxPacket, u32)>) {
        for (pkt, bytes) in batch.drain(..) {
            self.tx_count += 1;
            self.tx_bytes += u64::from(bytes);
            self.tx_count_per_switch[i] += 1;
            self.tx_bytes_per_switch[i] += u64::from(bytes);
            match self.peer_cache[i]
                .get(usize::from(pkt.port))
                .copied()
                .flatten()
            {
                Some((peer, link)) => {
                    let arrival = pkt.time.saturating_add(link.wire_delay(bytes));
                    // The PHV travels as transmitted (its values are
                    // frozen — nothing mutates an in-flight packet) and
                    // is re-materialized on the peer at dispatch via the
                    // cached transfer map. Injection happens *as of* the
                    // arrival time: the delivery event may be
                    // materialized after the clock moved past `arrival`
                    // (the drain is lazy), and the peer's tx timeline
                    // must not be distorted by that.
                    let slot = self.in_flight.park(pkt.phv);
                    self.schedule_kind(
                        arrival,
                        EventKind::WireDeliver {
                            src: i as u32,
                            dest: peer.switch as u32,
                            port: peer.port,
                            slot,
                        },
                    );
                }
                None => {
                    // Enforce the cap contract: older packets are
                    // discarded first, and a discarded packet's buffer
                    // goes back to the freelist of the switch it exited —
                    // at cap 0, the exiting packet's own.
                    while self.tx_log.len() >= self.tx_log_cap.max(1) {
                        if let Some((from, old)) = self.tx_log.pop_front() {
                            self.freelist(from).borrow_mut().put(old.phv);
                        }
                    }
                    if self.tx_log_cap > 0 {
                        self.tx_log.push_back((i, pkt));
                    } else {
                        self.freelist(i).borrow_mut().put(pkt.phv);
                    }
                }
            }
        }
    }

    /// Number of currently occupied timing-wheel slots (a telemetry gauge
    /// for scale scenarios; cheap — counts set occupancy bits).
    pub fn wheel_slots(&self) -> usize {
        self.wheel.occupied_slots()
    }

    /// Heap bytes parked across the fabric's PHV freelists (the packet
    /// arena steady-state footprint).
    pub fn arena_bytes(&self) -> u64 {
        self.freelists
            .iter()
            .map(|f| f.borrow().arena_bytes())
            .sum()
    }

    /// Take the transmitted-packet log (packets that exited the fabric),
    /// each with the index of the switch it exited from.
    pub fn take_tx_tagged(&mut self) -> Vec<(usize, TxPacket)> {
        self.tx_log.drain(..).collect()
    }
}

#[cfg(test)]
mod drain_property;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::Endpoint;
    use rmt_sim::{switch_from_source, PacketDesc, SwitchConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    const FWD_ALL: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd() { modify_field(intr.egress_spec, 2); }
table t { actions { fwd; } default_action : fwd(); }
control ingress { apply(t); }
"#;

    fn mk() -> Simulator {
        let clock = Clock::new();
        let sw = switch_from_source(FWD_ALL, SwitchConfig::default(), clock).unwrap();
        Simulator::new(SharedSwitch::new(sw))
    }

    /// A 2-switch line where switch 0 forwards everything out its linked
    /// port and switch 1 forwards everything out an unlinked one.
    fn mk_pair(latency_ns: Nanos) -> Simulator {
        const TO_LINK: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd() { modify_field(intr.egress_spec, 5); }
table t { actions { fwd; } default_action : fwd(); }
control ingress { apply(t); }
"#;
        let clock = Clock::new();
        let a = switch_from_source(TO_LINK, SwitchConfig::default(), clock.clone()).unwrap();
        let b = switch_from_source(FWD_ALL, SwitchConfig::default(), clock).unwrap();
        let topo =
            Topology::new(2).link_with(Endpoint::new(0, 5), Endpoint::new(1, 4), latency_ns, 0);
        Simulator::fabric(vec![SharedSwitch::new(a), SharedSwitch::new(b)], topo)
    }

    #[test]
    fn events_run_in_time_order_with_fifo_ties() {
        let mut sim = mk();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (t, tag) in [(50u64, "b"), (10, "a"), (50, "c"), (99, "d")] {
            let log = log.clone();
            sim.schedule(t, move |s| log.borrow_mut().push((s.now(), tag)));
        }
        sim.run_until(100);
        assert_eq!(
            *log.borrow(),
            vec![(10, "a"), (50, "b"), (50, "c"), (99, "d")]
        );
        assert_eq!(sim.now(), 100);
    }

    #[test]
    fn events_scheduled_from_events_run() {
        let mut sim = mk();
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        sim.schedule(10, move |s| {
            let h2 = h.clone();
            s.schedule(20, move |_| *h2.borrow_mut() += 1);
        });
        sim.run_until(100);
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn periodic_stops_on_false() {
        let mut sim = mk();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        sim.schedule_periodic(0, 10, move |_| {
            *c.borrow_mut() += 1;
            *c.borrow() < 5
        });
        sim.run_until(1_000);
        assert_eq!(*count.borrow(), 5);
    }

    #[test]
    fn injected_packets_get_transmitted_and_logged() {
        let mut sim = mk();
        for i in 0..3 {
            sim.schedule(i * 1_000, move |s| {
                s.switch().borrow_mut().inject(
                    &PacketDesc::new(0)
                        .field("ip", "src", i as u128)
                        .payload(100),
                );
            });
        }
        sim.run_until(1_000_000);
        let tx = sim.take_tx_tagged();
        assert_eq!(tx.len(), 3);
        assert_eq!(sim.tx_count, 3);
        assert_eq!(sim.tx_count_on(0), 3);
        assert!(tx.iter().all(|(from, p)| (*from, p.port) == (0, 2)));
        // Timestamps are monotone.
        assert!(tx.windows(2).all(|w| w[0].1.time <= w[1].1.time));
    }

    #[test]
    fn events_beyond_horizon_stay_queued() {
        let mut sim = mk();
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        sim.schedule(500, move |_| *h.borrow_mut() += 1);
        sim.run_until(100);
        assert_eq!(*hits.borrow(), 0);
        sim.run_until(1_000);
        assert_eq!(*hits.borrow(), 1);
    }

    #[test]
    fn tx_log_cap_discards_oldest_first() {
        let mut sim = mk();
        sim.tx_log_cap = 2;
        for i in 0..4 {
            sim.schedule(i * 10_000, move |s| {
                s.switch().borrow_mut().inject(
                    &PacketDesc::new(0)
                        .field("ip", "src", i as u128)
                        .payload(100),
                );
            });
        }
        sim.run_until(1_000_000);
        // All four transmissions counted, only the two *newest* kept.
        assert_eq!(sim.tx_count, 4);
        let tx = sim.take_tx_tagged();
        assert_eq!(tx.len(), 2);
        let srcs: Vec<u64> = {
            let sw = sim.switch().borrow();
            let id = sw.spec().field_id("ip", "src").unwrap();
            tx.iter().map(|(_, p)| p.phv.get(id).as_u64()).collect()
        };
        assert_eq!(srcs, vec![2, 3], "older packets must be discarded first");
    }

    #[test]
    fn linked_ports_deliver_to_the_peer_after_the_wire_delay() {
        let mut sim = mk_pair(5_000);
        sim.schedule(0, |s| {
            s.switch_at(0)
                .borrow_mut()
                .inject(&PacketDesc::new(0).field("ip", "src", 7).payload(100));
        });
        sim.run_until(2_000_000);
        // Hop 1 (switch 0 → link) is not an end-to-end delivery...
        assert_eq!(sim.tx_count_on(0), 1);
        // ...but switch 1 received it and forwarded it out its unlinked
        // port 2.
        assert_eq!(sim.tx_count_on(1), 1);
        assert_eq!(sim.tx_count, 2);
        let tx = sim.take_tx_tagged();
        assert_eq!(tx.len(), 1, "only the fabric exit is logged");
        let (from, pkt) = &tx[0];
        assert_eq!(*from, 1);
        assert_eq!(pkt.port, 2);
        {
            let sw = sim.switch_at(1).borrow();
            let id = sw.spec().field_id("ip", "src").unwrap();
            assert_eq!(pkt.phv.get(id).as_u64(), 7, "header survived the hop");
        }
        // The second hop can only start after the 5 µs wire delay.
        assert!(pkt.time > 5_000, "delivery at {} ns", pkt.time);
    }

    /// A packet on a wire is parked in the in-flight slab until its
    /// delivery fires: the slab holds exactly the pending wire events,
    /// reuses the slots deliveries free instead of growing, and a simulator
    /// dropped with packets still on its wires takes them along, leaving
    /// its switches as they were.
    #[test]
    fn packets_on_the_wire_are_parked_until_delivered() {
        let burst = |sim: &mut Simulator, n: u64| {
            let start = sim.now();
            for i in 0..n {
                sim.schedule(start + i * 1_000, move |s| {
                    let pkt = PacketDesc::new(0).field("ip", "src", u128::from(i));
                    s.switch_at(0).borrow_mut().inject(&pkt.payload(64));
                });
            }
            sim.run_until(start + 100_000);
        };
        let mut sim = mk_pair(1_000_000);
        burst(&mut sim, 5);
        assert_eq!(sim.in_flight.len(), 5, "all five on the wire");
        assert_eq!(sim.wheel.len(), sim.in_flight.len());
        sim.run_until(3_000_000);
        assert_eq!((sim.in_flight.len(), sim.wheel.len()), (0, 0));
        assert_eq!(sim.take_tx_tagged().len(), 5);
        // A second, smaller burst parks in the freed slots.
        burst(&mut sim, 3);
        assert_eq!((sim.in_flight.len(), sim.wheel.len()), (3, 3));
        assert_eq!(sim.in_flight.slots.len(), 5, "the slab did not grow");

        let receiver = sim.switch_at(1).clone();
        drop(sim);
        let mut sw = receiver.borrow_mut();
        assert_eq!((sw.stats.rx, sw.tm_queued()), (5, 0));
        assert!(sw.inject(&PacketDesc::new(4).field("ip", "src", 9).payload(64)));
    }

    /// Switches of one program shape draw from one freelist and a switch of
    /// another shape keeps its own; buffers parked before the fabric was
    /// built carry over into it, and the arena counts each freelist once.
    #[test]
    fn switches_of_one_shape_share_one_freelist() {
        const TAGGED: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header_type tag_t { fields { id : 16; } }
header ip_t ip;
header tag_t tag;
action fwd() { modify_field(intr.egress_spec, 2); }
table t { actions { fwd; } default_action : fwd(); }
control ingress { apply(t); }
"#;
        let clock = Clock::new();
        let mk = |src| switch_from_source(src, SwitchConfig::default(), clock.clone()).unwrap();
        let mut switches = [mk(FWD_ALL), mk(FWD_ALL), mk(TAGGED)];
        let bytes = |sw: &Switch| Phv::new(sw.spec()).heap_bytes();
        let (plain, tagged) = (bytes(&switches[0]), bytes(&switches[2]));
        assert_ne!(plain, tagged);
        for i in [0, 0, 2] {
            let phv = Phv::new(switches[i].spec());
            switches[i].recycle_phv(phv);
        }
        let desc = PacketDesc::new(0).field("ip", "src", 1).payload(64);
        let templates: Vec<_> = switches
            .iter()
            .map(|sw| rmt_sim::PacketTemplate::compile(&desc, sw.spec()).unwrap())
            .collect();
        let switches = switches.into_iter().map(SharedSwitch::new).collect();
        let sim = Simulator::fabric(switches, Topology::new(3));
        assert_eq!(sim.arena_bytes(), 2 * plain + tagged);
        let inject = |i: usize| {
            assert!(sim.switch_at(i).borrow_mut().inject_template(&templates[i]));
            sim.arena_bytes()
        };
        // Switch 1 parked nothing; it draws the two buffers switch 0 did.
        assert_eq!(inject(1), plain + tagged);
        assert_eq!(inject(1), tagged);
        // Its shape's freelist is dry: it allocates, and leaves the other
        // shape's buffer to the switch that can use it.
        assert_eq!(inject(1), tagged);
        assert_eq!(inject(2), 0);
    }

    /// Three switches of one program, no links: they share one freelist.
    fn mk_three() -> (Simulator, rmt_sim::PacketTemplate) {
        let clock = Clock::new();
        let mk = || switch_from_source(FWD_ALL, SwitchConfig::default(), clock.clone()).unwrap();
        let switches: Vec<SharedSwitch> = (0..3).map(|_| SharedSwitch::new(mk())).collect();
        let desc = PacketDesc::new(0).field("ip", "src", 1).payload(64);
        let tmpl = rmt_sim::PacketTemplate::compile(&desc, switches[0].borrow().spec()).unwrap();
        (Simulator::fabric(switches, Topology::new(3)), tmpl)
    }

    /// Inject `n` packets into switch 0 while switches 1 and 2 are held
    /// mutably borrowed, so a top-up that touched a peer would panic; the
    /// arena left after each injection.
    fn burst(sim: &mut Simulator, tmpl: &rmt_sim::PacketTemplate, n: usize) -> Vec<u64> {
        let peers = [sim.switch_at(1).clone(), sim.switch_at(2).clone()];
        let _held: Vec<_> = peers.iter().map(SharedSwitch::borrow_mut).collect();
        (0..n)
            .map(|_| {
                sim.inject_on(0, |sw, _| assert!(sw.inject_template(tmpl)));
                sim.arena_bytes()
            })
            .collect()
    }

    #[test]
    fn a_top_up_on_a_fabric_of_empty_pools_locks_no_peer() {
        let (mut sim, tmpl) = mk_three();
        // Every injection finds the shape's freelist dry and allocates,
        // without borrowing a peer to learn that.
        assert_eq!(burst(&mut sim, &tmpl, 64), [0; 64]);
        assert_eq!(sim.arena_bytes(), 0);
    }

    /// The one donor is the shape's freelist: buffers a peer parked are
    /// taken from it without borrowing that peer.
    #[test]
    fn a_top_up_locks_the_one_donor_the_index_names() {
        let (mut sim, tmpl) = mk_three();
        let size = Phv::new(sim.switch_at(0).borrow().spec()).heap_bytes();
        // Park four buffers on switch 2, under a borrow the simulator sees.
        sim.inject_on(2, |sw, _| {
            for _ in 0..4 {
                let phv = Phv::new(sw.spec());
                sw.recycle_phv(phv);
            }
        });
        assert_eq!(sim.arena_bytes(), 4 * size);
        // Four injections on switch 0 take them; the fifth allocates.
        assert_eq!(burst(&mut sim, &tmpl, 5), [3 * size, 2 * size, size, 0, 0]);
        // A closure event may recycle into any switch; the buffer lands in
        // the same freelist, and the next injection on switch 0 takes it.
        sim.schedule(sim.now(), |s| {
            let mut sw = s.switch_at(1).borrow_mut();
            let phv = Phv::new(sw.spec());
            sw.recycle_phv(phv);
        });
        sim.run_until(sim.now());
        assert_eq!(sim.arena_bytes(), size);
        assert_eq!(burst(&mut sim, &tmpl, 2), [0, 0]);
    }

    fn pair_fingerprint(workers: usize) -> (Vec<(usize, u64, u16)>, u64, u64, ParStats) {
        let mut sim = mk_pair(700);
        sim.set_workers(workers);
        for i in 0..20u64 {
            sim.schedule(i * 777, move |s| {
                s.switch_at(0).borrow_mut().inject(
                    &PacketDesc::new(0)
                        .field("ip", "src", u128::from(i))
                        .payload(64),
                );
            });
        }
        sim.run_until(3_000_000);
        let fingerprint: Vec<(usize, u64, u16)> = sim
            .take_tx_tagged()
            .iter()
            .map(|(sw, p)| (*sw, p.time, p.port))
            .collect();
        (fingerprint, sim.tx_count, sim.tx_bytes, sim.par_stats())
    }

    /// A drain modelled on two shards runs exactly as the serial one: the
    /// shard count moves only the modelled makespan, which is the whole
    /// work at one shard and never more than it at two.
    #[test]
    fn parallel_drain_matches_serial_exactly() {
        let (serial_fp, serial_count, serial_bytes, serial_stats) = pair_fingerprint(1);
        let (par_fp, par_count, par_bytes, par_stats) = pair_fingerprint(2);
        assert_eq!(serial_fp, par_fp);
        assert_eq!(serial_count, par_count);
        assert_eq!(serial_bytes, par_bytes);
        assert_eq!(serial_stats.work_units, par_stats.work_units);
        assert_eq!(serial_stats.switch_visits, par_stats.switch_visits);
        assert_eq!(serial_stats.critical_units, serial_stats.work_units);
        assert!(par_stats.critical_units <= par_stats.work_units);
    }

    #[test]
    fn worker_count_clamps_to_switch_count() {
        let mut sim = mk();
        sim.set_workers(8);
        assert_eq!(sim.workers(), 1, "single switch cannot shard");
        let mut pair = mk_pair(700);
        pair.set_workers(64);
        assert_eq!(pair.workers(), 2);
        pair.set_workers(0);
        assert_eq!(pair.workers(), 1);
    }

    #[test]
    fn fabric_runs_are_deterministic() {
        let run = || {
            let mut sim = mk_pair(700);
            for i in 0..20u64 {
                sim.schedule(i * 777, move |s| {
                    s.switch_at(0).borrow_mut().inject(
                        &PacketDesc::new(0)
                            .field("ip", "src", u128::from(i))
                            .payload(64),
                    );
                });
            }
            sim.run_until(3_000_000);
            let fingerprint: Vec<(usize, u64, u16)> = sim
                .take_tx_tagged()
                .iter()
                .map(|(sw, p)| (*sw, p.time, p.port))
                .collect();
            (fingerprint, sim.tx_count, sim.tx_bytes)
        };
        assert_eq!(run(), run());
    }

    /// A periodic chain whose next nominal firing would pass the u64
    /// horizon must end instead of clamping — a clamped reschedule would
    /// fire at the same instant forever.
    #[test]
    fn periodic_chain_ends_at_u64_horizon() {
        let mut sim = mk();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        sim.schedule_periodic(u64::MAX - 10, 8, move |_| {
            *c.borrow_mut() += 1;
            true
        });
        // Fires at MAX-10 and MAX-2; MAX-2 + 8 overflows, ending the
        // chain. If the add wrapped this loop would never terminate.
        sim.run_until(u64::MAX);
        assert_eq!(*count.borrow(), 2);
        assert_eq!(sim.now(), u64::MAX);
    }

    /// A zero interval degrades to 1 ns instead of rescheduling at the
    /// same instant, so the run still terminates.
    #[test]
    fn periodic_zero_interval_still_advances_time() {
        let mut sim = mk();
        let count = Rc::new(RefCell::new(0u32));
        let c = count.clone();
        sim.schedule_periodic(5, 0, move |_| {
            *c.borrow_mut() += 1;
            true
        });
        sim.run_until(10);
        // Fires at 5, 6, ..., 10.
        assert_eq!(*count.borrow(), 6);
    }

    /// Wire delay near the horizon saturates: the arrival lands at
    /// u64::MAX rather than wrapping into the packet's past.
    #[test]
    fn wire_delay_saturates_at_u64_horizon() {
        let mut sim = mk_pair(u64::MAX);
        sim.schedule(1_000, |s| {
            s.switch_at(0)
                .borrow_mut()
                .inject(&PacketDesc::new(0).field("ip", "src", 1).payload(64));
        });
        sim.run_until(u64::MAX);
        let tx = sim.take_tx_tagged();
        assert_eq!(tx.len(), 1, "packet must still arrive at the horizon");
        let (sw, pkt) = &tx[0];
        assert_eq!(*sw, 1);
        assert!(pkt.time >= 1_000, "arrival wrapped into the past");
        assert_eq!(sim.now(), u64::MAX);
    }

    /// `run_for` with a duration that would pass the horizon clamps to
    /// u64::MAX instead of wrapping to an earlier target.
    #[test]
    fn run_for_saturates_at_u64_horizon() {
        let mut sim = mk();
        sim.run_until(1_000);
        sim.run_for(u64::MAX);
        assert_eq!(sim.now(), u64::MAX);
    }
}
