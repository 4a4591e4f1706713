//! The switch: ports, ingress/egress pipelines, traffic manager, stateful
//! registers, and the raw driver API the control plane uses. A [`Table`]'s
//! undo journal is the only record of a live checkpoint token; DESIGN.md
//! §14, "Switch components", names the writers of every other field.
//!
//! Execution is deterministic and driven by the shared virtual [`Clock`].
//! Packets can be processed in one call (fast path) or stage-by-stage via
//! [`Execution`], which is what the isolation property tests use to
//! interleave control-plane updates with in-flight packets.

use crate::clock::{Clock, Nanos};
use crate::kernel::Program;
use crate::phv::{PacketDesc, PacketTemplate, Phv, PhvPool, PHV_POOL_CAP};
use crate::registers::RegisterArray;
use crate::spec;
use crate::spec::{ActionId, DataPlaneSpec, FieldId, PipelineTiming, PortId, RegisterId, TableId};
use crate::table::{EntryHandle, KeyField, Lookup, Table, TableError};
use mantis_telemetry::{
    scopes::{pipe_metric, switch_metric},
    CounterId, GaugeId, NameId, Scope, Telemetry,
};
use p4_ast::{Pipeline, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Switch configuration.
#[derive(Clone, Debug)]
pub struct SwitchConfig {
    /// Total front-panel ports across all pipes.
    pub num_ports: u16,
    /// Number of independent hardware pipes. Ports are partitioned
    /// contiguously across pipes (`ceil(num_ports / num_pipes)` per pipe);
    /// a packet runs in its port's pipe. Each pipe has its own register
    /// file and its own default action per table; the stage layout, the
    /// table entries, port state and TM queues are stored once. `0` is
    /// normalized to `1`.
    pub num_pipes: u16,
    /// Port line rate in bits per second (uniform).
    pub port_rate_bps: u64,
    /// Per-port queue capacity in bytes (tail drop beyond this).
    pub queue_capacity_bytes: u32,
    pub timing: PipelineTiming,
    /// Port number that recirculates packets back to ingress.
    pub recirc_port: PortId,
    /// Maximum recirculations per packet (loop guard).
    pub recirc_limit: u8,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            num_ports: 32,
            num_pipes: 1,
            port_rate_bps: 25_000_000_000, // 25 Gbps, as in the paper's testbed
            queue_capacity_bytes: 1 << 20, // 1 MiB per port
            timing: PipelineTiming::default(),
            recirc_port: 68,
            recirc_limit: 8,
        }
    }
}

/// Per-port counters and state.
#[derive(Clone, Debug, Default)]
pub struct PortState {
    pub up: bool,
    pub rx_packets: u64,
    pub rx_bytes: u64,
    pub tx_packets: u64,
    pub tx_bytes: u64,
    pub queue_drops: u64,
}

/// Global switch statistics.
#[derive(Clone, Debug, Default)]
pub struct SwitchStats {
    pub rx: u64,
    pub tx: u64,
    pub dropped_ingress: u64,
    pub dropped_port_down: u64,
    pub dropped_queue: u64,
    pub recirculated: u64,
}

/// A packet transmitted out of a port.
#[derive(Clone, Debug)]
pub struct TxPacket {
    pub port: PortId,
    pub phv: Phv,
    /// Transmit completion time.
    pub time: Nanos,
}

/// A queued packet awaiting egress service.
#[derive(Clone, Debug)]
struct Queued {
    phv: Phv,
    bytes: u32,
    /// Enqueue time (earliest the packet can reach the wire, modulo
    /// pipeline latency).
    enq_ns: Nanos,
}

/// How an inject ended; what its telemetry burst is written from.
#[derive(Clone, Copy, Debug)]
enum Fate {
    /// Accepted into `port`'s queue, now `depth` bytes deep.
    Queued { port: PortId, depth: u32 },
    /// Arrived on a port that is down.
    PortDown { port: PortId },
    /// Tail-dropped at `port`'s queue, `depth` bytes deep.
    QueueFull { port: PortId, depth: u32 },
    /// Dropped by the program, the recirculation guard, or an egress spec
    /// off the front panel.
    Dropped,
}

/// Per-port FIFO queue.
#[derive(Clone, Debug, Default)]
struct PortQueue {
    packets: VecDeque<Queued>,
    depth_bytes: u32,
    /// Time the port finishes serializing the current packet.
    busy_until: Nanos,
}

/// How a control-plane register read combines per-pipe values into one
/// logical value per index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadAgg {
    /// Element-wise wrapping sum — correct for data-plane counters and
    /// anything written by at most one pipe (e.g. per-port state mirrored
    /// only into the owning pipe).
    Sum,
    /// Element-wise maximum — correct for registers the control plane
    /// writes symmetrically to every pipe (a sum would multiply the value
    /// by `num_pipes`).
    Max,
}

/// A packet part-way through a pipeline, used for stage-interleaved
/// execution in isolation tests.
#[derive(Clone, Debug)]
pub struct Execution {
    pub phv: Phv,
    pipeline: Pipeline,
    next_stage: u32,
    total_stages: u32,
    /// The hardware pipe this packet executes in.
    pipe: u16,
}

impl Execution {
    pub fn done(&self) -> bool {
        self.next_stage >= self.total_stages || self.phv.dropped
    }

    /// The hardware pipe this execution runs in.
    pub fn pipe(&self) -> u16 {
        self.pipe
    }
}

/// Control-plane driver errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverError {
    Table(TableError),
    UnknownTable(String),
    UnknownRegister(String),
    UnknownAction(String),
    BadPort(PortId),
    BadPipe(u16),
    /// A fault injected by a `mantis-faults` plan before the op reached
    /// the device (no state was mutated). `persistent` distinguishes
    /// retry-recoverable transport glitches from hard faults.
    Injected {
        op: &'static str,
        persistent: bool,
    },
    /// The controlling agent process died mid-operation (an injected
    /// crash). Unlike `Injected`, the op may or may not have reached the
    /// device — the survivor must *reconcile* by reading device state
    /// back, never retry blindly.
    Crashed {
        op: &'static str,
    },
}

impl DriverError {
    /// Would retrying the failed operation plausibly succeed? Only
    /// injected *transient* faults are retryable; capacity exhaustion,
    /// unknown names, crashes, and persistent faults are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            DriverError::Injected {
                persistent: false,
                ..
            }
        )
    }

    /// Is this an injected agent crash? Crash errors abort the dialogue
    /// loop without rollback: the dead process cannot repair anything,
    /// recovery happens in [`reconcile`] after restart.
    pub fn is_crash(&self) -> bool {
        matches!(self, DriverError::Crashed { .. })
    }
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Table(e) => write!(f, "table op failed: {e}"),
            DriverError::UnknownTable(s) => write!(f, "unknown table `{s}`"),
            DriverError::UnknownRegister(s) => write!(f, "unknown register `{s}`"),
            DriverError::UnknownAction(s) => write!(f, "unknown action `{s}`"),
            DriverError::BadPort(p) => write!(f, "port {p} out of range"),
            DriverError::BadPipe(p) => write!(f, "pipe {p} out of range"),
            DriverError::Injected { op, persistent } => write!(
                f,
                "injected {} fault in `{op}`",
                if *persistent {
                    "persistent"
                } else {
                    "transient"
                }
            ),
            DriverError::Crashed { op } => {
                write!(f, "agent crashed during `{op}`")
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<TableError> for DriverError {
    fn from(e: TableError) -> Self {
        DriverError::Table(e)
    }
}

/// Telemetry handles behind the per-packet records, resolved against the
/// attached registry once ([`Switch::resolve_metrics`]) so the packet path
/// never formats or looks up a name.
#[derive(Debug, Default)]
struct SwitchMetrics {
    rx: CounterId,
    tx: CounterId,
    /// `pipe{p}.switch.rx` / `.tx` per pipe; empty on a single-pipe switch.
    pipe_rx: Vec<CounterId>,
    pipe_tx: Vec<CounterId>,
    /// `sw{i}.switch.rx` / `.tx` when the switch has a fabric index.
    sw_rx: Option<CounterId>,
    sw_tx: Option<CounterId>,
    /// `tm.q{port}_depth_bytes` per front-panel port, each resolved by the
    /// first packet the port queues (most ports of a fabric switch stay
    /// idle, and set-up should not pay for their names).
    qdepth: Vec<GaugeId>,
    egress_pass: NameId,
    drop_port_down: NameId,
    drop_queue_full: NameId,
}

/// The simulated switch: `num_pipes` hardware pipes running one compiled
/// [`DataPlaneSpec`] over one copy of each table.
pub struct Switch {
    spec: DataPlaneSpec,
    config: SwitchConfig,
    clock: Clock,
    /// One per spec table; each holds a default action per pipe.
    tables: Vec<Table>,
    /// One register file per pipe: the data plane writes its own pipe's.
    registers: Vec<Vec<RegisterArray>>,
    /// Per front-panel port, by global port number.
    ports: Vec<PortState>,
    queues: Vec<PortQueue>,
    /// The pipe of each port, contiguous like real front panels (port `p`
    /// is in pipe `p / ceil(num_ports / num_pipes)`), so the packet path
    /// never divides; ports past its end belong to the last pipe.
    port_map: Box<[u16]>,
    /// The next checkpoint token; a live one is held by its table's journal.
    next_checkpoint: u64,
    /// The spec's action bodies and control blocks lowered to micro-ops
    /// ([`crate::kernel`]); what the packet path executes.
    program: Program,
    /// Transmitted packets paired with their frame length in bytes
    /// (known exactly at enqueue — pipeline actions never change header
    /// validity, so the length is invariant through egress).
    transmitted: Vec<(TxPacket, u32)>,
    /// Register automatically updated with per-port queue depth in bytes.
    qdepth_register: Option<RegisterId>,
    pub stats: SwitchStats,
    /// The registry the packet path records into, by the handles in
    /// `metrics`.
    telemetry: Arc<Telemetry>,
    metrics: SwitchMetrics,
    /// This switch's index within a multi-switch fabric. `None` (the
    /// default, and always the case for single-switch testbeds) suppresses
    /// the `sw{i}.*` telemetry scope entirely so existing goldens stay
    /// byte-identical.
    fabric_index: Option<u16>,
    /// Reusable per-stage buffer of tables whose guards passed.
    apply_scratch: Vec<TableId>,
    /// Reusable buffer for hash-calculation inputs.
    hash_scratch: Vec<Value>,
    /// Freelist of PHVs shaped for `spec` — private, or shared with the
    /// fabric's other switches of this shape
    /// ([`share_phv_pool`](Switch::share_phv_pool)); the steady-state
    /// packet path (template injection, wire delivery, drops) cycles
    /// buffers through it instead of allocating.
    phv_pool: Rc<RefCell<PhvPool>>,
    /// Packets currently sitting in TM queues (all pipes).
    queued_pkts: u64,
    /// One bit per front-panel port: set while that port's queue is
    /// non-empty, so `pump` skips idle ports without touching their queues.
    queue_mask: Vec<u64>,
    /// Earliest virtual time a queued packet can be served — the minimum
    /// over the queue heads of their transmit start: a packet that
    /// becomes a head lowers it, a full [`Switch::pump`] recomputes it
    /// from the heads it left blocked. A pump before this instant is
    /// provably a no-op (it only serves heads with `tx_start <= now`),
    /// which lets fabric drains skip the switch outright. Meaningful only
    /// while something is queued; see [`Switch::next_ready_at`].
    next_ready: Nanos,
    /// One-entry `(bytes, ns)` memo for [`Switch::wire_time`]; starts at
    /// `(0, 0)`, which is itself the correct mapping for zero bytes.
    wire_memo: (u32, Nanos),
    /// Latency from enqueue to the first wire byte (egress pipeline +
    /// fixed overheads; the ingress half happens before enqueue).
    egress_ns: Nanos,
}

impl fmt::Debug for Switch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Switch")
            .field("pipes", &self.registers.len())
            .field("tables", &self.tables.len())
            .field("ports", &(self.config.num_ports as usize))
            .field("stats", &self.stats)
            .finish()
    }
}

impl Switch {
    pub fn new(spec: DataPlaneSpec, mut config: SwitchConfig, clock: Clock) -> Self {
        config.num_pipes = config.num_pipes.max(1);
        let num_pipes = config.num_pipes;
        let ports_per_pipe = config.num_ports.div_ceil(num_pipes);
        let num_ports = usize::from(config.num_ports);
        let up = PortState {
            up: true,
            ..Default::default()
        };
        let program = Program::lower(&spec);
        let t = &config.timing;
        let egress_ns = t.fixed / 2 + u64::from(spec.egress_stages) * t.per_stage;
        Switch {
            tables: spec
                .tables
                .iter()
                .map(|t| Table::with_pipes(t, num_pipes))
                .collect(),
            registers: (0..num_pipes)
                .map(|_| spec.registers.iter().map(RegisterArray::new).collect())
                .collect(),
            ports: vec![up; num_ports],
            queues: vec![PortQueue::default(); num_ports],
            port_map: (0..ports_per_pipe.saturating_mul(num_pipes))
                .map(|p| p / ports_per_pipe)
                .collect(),
            spec,
            config,
            clock,
            next_checkpoint: 0,
            program,
            transmitted: Vec::new(),
            qdepth_register: None,
            stats: SwitchStats::default(),
            telemetry: Telemetry::disabled(),
            metrics: SwitchMetrics::default(),
            fabric_index: None,
            apply_scratch: Vec::new(),
            hash_scratch: Vec::new(),
            phv_pool: Rc::new(RefCell::new(PhvPool::new(PHV_POOL_CAP))),
            queued_pkts: 0,
            queue_mask: vec![0u64; num_ports.div_ceil(64)],
            next_ready: Nanos::MAX,
            wire_memo: (0, 0),
            egress_ns,
        }
    }

    // -- port → pipe map ------------------------------------------------------

    /// Number of hardware pipes.
    pub fn num_pipes(&self) -> u16 {
        self.config.num_pipes
    }

    /// The pipe a port belongs to, clamping out-of-panel ports (like the
    /// recirculation port) to the last pipe — execution needs *some* pipe.
    #[inline]
    pub fn pipe_of_port(&self, port: PortId) -> u16 {
        self.port_map
            .get(usize::from(port))
            .map_or(self.config.num_pipes - 1, |&pipe| pipe)
    }

    /// Attach a shared telemetry handle: the traffic manager publishes
    /// per-port queue-depth gauges, drops become instant events, and
    /// each egress pass is a `Scope::Switch` span on the virtual
    /// timeline.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = telemetry;
        self.resolve_metrics();
    }

    /// Resolve every name the packet path records under against the
    /// attached registry. Registration is invisible to exports, so names
    /// that never fire (idle ports, drops) never appear in a snapshot.
    fn resolve_metrics(&mut self) {
        let tel = &self.telemetry;
        if !tel.is_enabled() {
            self.metrics = SwitchMetrics::default();
            return;
        }
        let pipes = if self.config.num_pipes > 1 {
            0..self.config.num_pipes
        } else {
            0..0
        };
        self.metrics = SwitchMetrics {
            rx: tel.register_counter("switch.rx"),
            tx: tel.register_counter("switch.tx"),
            pipe_rx: pipes
                .clone()
                .map(|p| tel.register_counter(&pipe_metric(p, "switch.rx")))
                .collect(),
            pipe_tx: pipes
                .map(|p| tel.register_counter(&pipe_metric(p, "switch.tx")))
                .collect(),
            sw_rx: self
                .fabric_index
                .map(|sw| tel.register_counter(&switch_metric(sw, "switch.rx"))),
            sw_tx: self
                .fabric_index
                .map(|sw| tel.register_counter(&switch_metric(sw, "switch.tx"))),
            qdepth: vec![GaugeId::default(); usize::from(self.config.num_ports)],
            egress_pass: tel.intern("egress_pass"),
            drop_port_down: tel.intern("drop_port_down"),
            drop_queue_full: tel.intern("drop_queue_full"),
        };
    }

    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Label this switch as member `i` of a multi-switch fabric: its
    /// rx/tx counters are additionally emitted under the `sw{i}.*` scope
    /// (mirroring the `pipe{p}.*` convention). Fabric builders set this
    /// only when the topology has more than one switch, so single-switch
    /// traces never contain `sw` labels.
    pub fn set_fabric_index(&mut self, index: Option<u16>) {
        self.fabric_index = index;
        self.resolve_metrics();
    }

    pub fn spec(&self) -> &DataPlaneSpec {
        &self.spec
    }

    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Bind a register array so the traffic manager mirrors per-port queue
    /// depth (bytes) into it, index = port. This models Tofino's queue-depth
    /// visibility used by the paper's use cases.
    pub fn bind_queue_depth_register(&mut self, name: &str) -> Result<(), DriverError> {
        let id = self
            .spec
            .register_id(name)
            .ok_or_else(|| DriverError::UnknownRegister(name.into()))?;
        self.qdepth_register = Some(id);
        Ok(())
    }

    // -- packet path ---------------------------------------------------------

    /// Inject a packet described as field assignments; runs ingress and
    /// enqueues to the traffic manager. Returns `true` if the packet was
    /// accepted into a queue (not dropped).
    pub fn inject(&mut self, desc: &PacketDesc) -> bool {
        let phv = desc.build(&self.spec);
        self.inject_phv(phv)
    }

    /// Inject a pre-compiled packet template. Semantically identical to
    /// [`Switch::inject`] on the template's source desc, but the PHV comes
    /// from the switch's freelist — zero allocation on the steady state.
    pub fn inject_template(&mut self, tmpl: &PacketTemplate) -> bool {
        let mut phv = self.phv_pool.borrow_mut().take(&self.spec);
        tmpl.write_into(&mut phv, &self.spec);
        self.inject_phv(phv)
    }

    /// Return a PHV to this switch's freelist once the packet is done.
    pub fn recycle_phv(&mut self, phv: Phv) {
        self.phv_pool.borrow_mut().put(phv);
    }

    /// Draw PHVs from, and recycle them into, `pool` — a freelist shaped
    /// for this switch's spec, shared with other switches of that shape —
    /// instead of the current one. Buffers parked in the current one move
    /// into `pool`.
    pub fn share_phv_pool(&mut self, pool: Rc<RefCell<PhvPool>>) {
        let old = std::mem::replace(&mut self.phv_pool, pool);
        if !Rc::ptr_eq(&old, &self.phv_pool) {
            self.phv_pool.borrow_mut().absorb(&mut old.borrow_mut());
        }
    }

    /// Packets currently waiting in TM queues across all pipes. A switch
    /// with zero queued packets is guaranteed to transmit nothing from a
    /// pump, which is what lets the drain loop skip it entirely.
    #[inline]
    pub fn tm_queued(&self) -> u64 {
        self.queued_pkts
    }

    /// Inject a pre-built PHV.
    pub fn inject_phv(&mut self, phv: Phv) -> bool {
        self.inject_phv_at(phv, self.clock.now())
    }

    /// Inject a pre-built PHV as of virtual time `at` (≤ now). Fabric
    /// links use this: the simulator materializes a wire delivery lazily
    /// (possibly after the clock moved past the arrival), and timestamping
    /// the packet with its true arrival keeps the downstream tx timeline
    /// exact — the TM already computes `tx_start` from per-packet
    /// `enq_ns`, not from the pump time.
    pub fn inject_phv_at(&mut self, phv: Phv, at: Nanos) -> bool {
        let intr = self.spec.intr_ids().expect("intrinsic field");
        self.stats.rx += 1;
        let in_port = phv.get_u64(intr.ingress_port) as PortId;
        let exec_pipe = self.pipe_of_port(in_port);
        let fate = self.ingress(phv, in_port, at);
        if self.telemetry.is_enabled() {
            self.record_inject(exec_pipe, fate);
        }
        matches!(fate, Fate::Queued { .. })
    }

    /// Everything between a packet's arrival and its queue: port state and
    /// counters, the ingress pipeline (as often as it recirculates), the
    /// traffic manager's admission.
    fn ingress(&mut self, mut phv: Phv, in_port: PortId, at: Nanos) -> Fate {
        let intr = self.spec.intr_ids().expect("intrinsic field");
        let rx_bytes = u64::from(phv.frame_len(&self.spec));
        if let Some(p) = self.ports.get_mut(usize::from(in_port)) {
            if !p.up {
                self.stats.dropped_port_down += 1;
                self.recycle_phv(phv);
                return Fate::PortDown { port: in_port };
            }
            p.rx_packets += 1;
            p.rx_bytes += rx_bytes;
        }
        phv.set_u64(intr.ts_ns, at);
        loop {
            let pipe = self.exec_pipe(&phv, Pipeline::Ingress);
            self.run_stages(Pipeline::Ingress, pipe, &mut phv);
            if phv.dropped {
                break;
            }
            let out_port = phv.get_u64(intr.egress_spec) as PortId;
            if out_port != self.config.recirc_port {
                return self.enqueue(out_port, phv, at);
            }
            // Send the packet back through the ingress pipeline (bounded
            // by the recirculation limit). Recirculation consumes pipeline
            // bandwidth; the `recirculated` stat lets experiments account
            // for the throughput penalty the paper discusses (§2).
            let count = phv.get_u64(intr.recirc_count);
            if count as u8 >= self.config.recirc_limit {
                break;
            }
            phv.set_u64(intr.recirc_count, count + 1);
            self.stats.recirculated += 1;
        }
        self.stats.dropped_ingress += 1;
        self.recycle_phv(phv);
        Fate::Dropped
    }

    /// The records of one inject, in the order the packet met them — rx
    /// counters, then the drop it ran into or the depth of the queue it
    /// joined. Call only with telemetry on.
    fn record_inject(&mut self, exec_pipe: u16, fate: Fate) {
        let gauge = match fate {
            Fate::Queued { port, .. } => self.qdepth_gauge(port),
            _ => GaugeId::default(),
        };
        let rec = &self.telemetry;
        rec.add(self.metrics.rx, 1);
        if let Some(&id) = self.metrics.pipe_rx.get(usize::from(exec_pipe)) {
            rec.add(id, 1);
        }
        if let Some(id) = self.metrics.sw_rx {
            rec.add(id, 1);
        }
        let multi_pipe = self.config.num_pipes > 1;
        match fate {
            Fate::Queued { depth, .. } => rec.set(gauge, i128::from(depth)),
            Fate::PortDown { port } => {
                let pipe = self.pipe_of_port(port);
                let args = [("port", i128::from(port)), ("pipe", i128::from(pipe))];
                let nargs = if multi_pipe { 2 } else { 1 };
                rec.mark(
                    Scope::Switch,
                    self.metrics.drop_port_down,
                    self.clock.now(),
                    &args[..nargs],
                );
            }
            Fate::QueueFull { port, depth } => {
                let args = [
                    ("port", i128::from(port)),
                    ("depth_bytes", i128::from(depth)),
                    ("pipe", i128::from(self.pipe_of_port(port))),
                ];
                let nargs = if multi_pipe { 3 } else { 2 };
                rec.mark(
                    Scope::TrafficManager,
                    self.metrics.drop_queue_full,
                    self.clock.now(),
                    &args[..nargs],
                );
            }
            Fate::Dropped => {}
        }
    }

    /// Admit an ingress-complete PHV to its egress port's queue.
    fn enqueue(&mut self, port: PortId, mut phv: Phv, at: Nanos) -> Fate {
        let bytes = phv.frame_len(&self.spec);
        let Some(q) = self.queues.get_mut(usize::from(port)) else {
            self.stats.dropped_ingress += 1;
            self.recycle_phv(phv);
            return Fate::Dropped;
        };
        if q.depth_bytes + bytes > self.config.queue_capacity_bytes {
            let depth = q.depth_bytes;
            self.stats.dropped_queue += 1;
            self.ports[usize::from(port)].queue_drops += 1;
            self.recycle_phv(phv);
            return Fate::QueueFull { port, depth };
        }
        // Record the queue depth seen at enqueue (DCTCP-style marking uses
        // this).
        let intr = self.spec.intr_ids().expect("intrinsic field");
        phv.set_u64(intr.deq_qdepth, u64::from(q.depth_bytes));
        q.depth_bytes += bytes;
        let enq_ns = at;
        if q.packets.is_empty() {
            // A new queue head: it cannot transmit before clearing the
            // egress pipeline and whatever the wire is still serializing.
            // Only heads move the switch's ready time — a packet behind
            // one waits for it — which keeps `next_ready` exact.
            let tx_start = q.busy_until.max(enq_ns.saturating_add(self.egress_ns));
            self.next_ready = self.next_ready.min(tx_start);
        }
        q.packets.push_back(Queued { phv, bytes, enq_ns });
        self.queued_pkts += 1;
        self.queue_mask[usize::from(port / 64)] |= 1u64 << (port % 64);
        let depth = self.mirror_qdepth_register(port);
        Fate::Queued { port, depth }
    }

    /// Serve all port queues up to the current virtual time: dequeue, run
    /// egress, transmit (or recirculate). Call after advancing the clock.
    /// Returns the number of packets served (the drain's work unit).
    ///
    /// Ports are served in global port order. Ports are assigned to pipes
    /// in contiguous front-panel blocks, so this is also pipe-major order.
    pub fn pump(&mut self) -> u64 {
        // A full pump sees every blocked queue head, so the readiness
        // bound can be recomputed exactly (enqueues during the pump —
        // recirculation — lower it again via `enqueue`).
        self.next_ready = Nanos::MAX;
        let now = self.clock.now();
        let mut served = 0;
        for w in 0..self.queue_mask.len() {
            // Idle ports (no queued packets) are invisible to a pump: no
            // telemetry, no state changes — walking only the set bits of
            // the queue mask is byte-exact.
            let mut word = self.queue_mask[w];
            while word != 0 {
                let port = (w * 64) as u16 + word.trailing_zeros() as u16;
                word &= word - 1;
                served += self.serve_port(port, now);
            }
        }
        served
    }

    /// Earliest virtual time at which a pump could serve a queued packet
    /// (`u64::MAX` when nothing is queued). A pump strictly before this
    /// instant has zero side effects, and one at or after it serves at
    /// least one packet.
    #[inline]
    pub fn next_ready_at(&self) -> Nanos {
        if self.queued_pkts == 0 {
            Nanos::MAX
        } else {
            self.next_ready
        }
    }

    /// Serve `port`'s queue up to `now`: dequeue, egress pipeline,
    /// transmit. Returns the packets served.
    fn serve_port(&mut self, port: PortId, now: Nanos) -> u64 {
        let intr = self.spec.intr_ids().expect("intrinsic field");
        let slot = usize::from(port);
        let mut served = 0;
        loop {
            let q = &mut self.queues[slot];
            let Some(head) = q.packets.front() else {
                self.queue_mask[usize::from(port / 64)] &= !(1u64 << (port % 64));
                break;
            };
            // The wire serializes back-to-back; an idle wire waits for
            // the packet to clear the egress pipeline. Saturating: a
            // packet enqueued at the u64 horizon stays schedulable
            // instead of wrapping into the past.
            let tx_start = q.busy_until.max(head.enq_ns.saturating_add(self.egress_ns));
            if tx_start > now {
                self.next_ready = self.next_ready.min(tx_start);
                break;
            }
            let Some(Queued { mut phv, bytes, .. }) = q.packets.pop_front() else {
                break;
            };
            served += 1;
            self.queued_pkts -= 1;
            q.depth_bytes -= bytes;
            let wire_ns = self.wire_time(bytes);
            let tx_time = tx_start.saturating_add(wire_ns);
            self.queues[slot].busy_until = tx_time;
            let depth = self.mirror_qdepth_register(port);

            phv.set_u64(intr.egress_port, u64::from(port));
            let exec_pipe = self.exec_pipe(&phv, Pipeline::Egress);
            self.run_stages(Pipeline::Egress, exec_pipe, &mut phv);
            let transmitted = if phv.dropped {
                self.stats.dropped_ingress += 1;
                false
            } else if !self.ports[slot].up {
                self.stats.dropped_port_down += 1;
                false
            } else {
                let p = &mut self.ports[slot];
                p.tx_packets += 1;
                p.tx_bytes += u64::from(bytes);
                self.stats.tx += 1;
                true
            };
            if self.telemetry.is_enabled() {
                self.record_served(port, depth, tx_start, tx_time, transmitted);
            }
            if transmitted {
                self.transmitted.push((
                    TxPacket {
                        port,
                        phv,
                        time: tx_time,
                    },
                    bytes,
                ));
            } else {
                self.recycle_phv(phv);
            }
        }
        served
    }

    /// The records of one served packet, in the order it met them — the
    /// depth of the queue it left, its dequeue→wire window on the virtual
    /// timeline, then (if it made the wire) the tx counters. Call only
    /// with telemetry on.
    fn record_served(
        &mut self,
        port: PortId,
        depth: u32,
        tx_start: Nanos,
        tx_time: Nanos,
        transmitted: bool,
    ) {
        let gauge = self.qdepth_gauge(port);
        let pipe = usize::from(self.pipe_of_port(port));
        let rec = &self.telemetry;
        rec.set(gauge, i128::from(depth));
        let name = self.metrics.egress_pass;
        rec.begin(Scope::Switch, name, tx_start);
        rec.end(Scope::Switch, name, tx_time);
        if transmitted {
            rec.add(self.metrics.tx, 1);
            if let Some(&id) = self.metrics.pipe_tx.get(pipe) {
                rec.add(id, 1);
            }
            if let Some(id) = self.metrics.sw_tx {
                rec.add(id, 1);
            }
        }
    }

    /// Wire serialization time for `bytes` at the port rate (saturating: a
    /// degenerate sub-bit/s rate yields the u64 horizon, not a wrap), with
    /// a one-entry memo: traffic is dominated by runs of equal-length
    /// frames, and the u128 division is measurable per packet.
    fn wire_time(&mut self, bytes: u32) -> Nanos {
        if bytes != self.wire_memo.0 {
            let rate = u128::from(self.config.port_rate_bps);
            let ns = u128::from(bytes) * 8 * 1_000_000_000 / rate;
            self.wire_memo = (bytes, Nanos::try_from(ns).unwrap_or(Nanos::MAX));
        }
        self.wire_memo.1
    }

    /// Drain transmitted packets.
    pub fn take_transmitted(&mut self) -> Vec<TxPacket> {
        self.transmitted.drain(..).map(|(pkt, _)| pkt).collect()
    }

    /// Drain transmitted packets into `out`, tagged with their frame
    /// length. Unlike [`take_transmitted`](Switch::take_transmitted) this
    /// keeps the internal buffer's capacity, so a caller that reuses `out`
    /// makes the whole pump → route handoff allocation-free at steady
    /// state.
    pub fn drain_transmitted_with_len(&mut self, out: &mut Vec<(TxPacket, u32)>) {
        out.append(&mut self.transmitted);
    }

    /// Current queue depth in bytes for a port.
    pub fn queue_depth(&self, port: PortId) -> u32 {
        self.queues
            .get(usize::from(port))
            .map_or(0, |q| q.depth_bytes)
    }

    /// Mirror front-panel `port`'s queue depth into the qdepth register
    /// (if one is bound); returns the depth.
    fn mirror_qdepth_register(&mut self, port: PortId) -> u32 {
        let depth = self.queue_depth(port);
        if let Some(rid) = self.qdepth_register {
            // Only the owning pipe sees its ports' depths, at the *global*
            // port index — a cross-pipe aggregated read therefore
            // reconstructs the full panel (every other pipe holds zero).
            let pipe = usize::from(self.pipe_of_port(port));
            self.registers[pipe][rid.0 as usize]
                .write(port as usize, Value::new(u128::from(depth), 64));
        }
        depth
    }

    /// The `tm.q{port}_depth_bytes` handle of a front-panel port, resolved
    /// on first use. Call only with telemetry on.
    fn qdepth_gauge(&mut self, port: PortId) -> GaugeId {
        let id = &mut self.metrics.qdepth[usize::from(port)];
        let tel = &self.telemetry;
        if !tel.owns(*id) {
            *id = tel.register_gauge(&format!("tm.q{port}_depth_bytes"));
        }
        *id
    }

    // -- staged execution -----------------------------------------------------

    /// Begin a staged execution of one pipeline over a PHV. The pipe is
    /// derived from the packet's port: ingress port for ingress passes,
    /// the `egress_port` intrinsic for egress passes.
    pub fn exec_start(&self, phv: Phv, pipeline: Pipeline) -> Execution {
        let total_stages = match pipeline {
            Pipeline::Ingress => self.spec.ingress_stages,
            Pipeline::Egress => self.spec.egress_stages,
        };
        Execution {
            pipe: self.exec_pipe(&phv, pipeline),
            phv,
            pipeline,
            next_stage: 0,
            total_stages,
        }
    }

    /// The pipe a packet executes `pipeline` in (see
    /// [`exec_start`](Switch::exec_start)).
    #[inline]
    fn exec_pipe(&self, phv: &Phv, pipeline: Pipeline) -> u16 {
        let intr = self.spec.intr_ids().expect("intrinsic field");
        let port = match pipeline {
            Pipeline::Ingress => phv.get_u64(intr.ingress_port) as PortId,
            Pipeline::Egress => phv.get_u64(intr.egress_port) as PortId,
        };
        self.pipe_of_port(port)
    }

    /// Execute one stage. Control-plane operations performed between calls
    /// model PCIe-time interleaving with in-flight packets.
    pub fn exec_step(&mut self, exec: &mut Execution) {
        if exec.done() {
            return;
        }
        let stage = exec.next_stage;
        exec.next_stage += 1;
        self.run_stage(exec.pipeline, stage, exec.pipe as usize, &mut exec.phv);
    }

    /// One stage of one pipeline over a PHV in pipe `pipe`: find the
    /// tables whose guards pass, then match and act, in apply order.
    #[inline]
    fn run_stage(&mut self, pipeline: Pipeline, stage: u32, pipe: usize, phv: &mut Phv) {
        // Split borrows: the spec and the lowered program are read-only
        // while the tables, the pipe's registers and the scratch buffers
        // (switch-owned, reused across packets) are mutated.
        let Switch {
            spec,
            program,
            tables,
            registers,
            apply_scratch,
            hash_scratch,
            ..
        } = self;
        program.passing_tables(pipeline == Pipeline::Egress, stage, phv, apply_scratch);
        let registers = &mut registers[pipe];
        for tid in apply_scratch.iter() {
            let t = tid.0 as usize;
            let (action, data) = match tables[t].lookup_in(pipe, &spec.tables[t], phv) {
                Lookup::Hit {
                    action,
                    action_data,
                    ..
                }
                | Lookup::Default {
                    action,
                    action_data,
                } => (action, action_data),
                Lookup::Miss => continue,
            };
            program.run_action(
                action.0 as usize,
                &spec.calcs,
                registers,
                hash_scratch,
                data,
                phv,
            );
            if phv.dropped {
                break;
            }
        }
    }

    /// Every stage of one pipeline, in place — the packet path's form of
    /// [`exec_start`](Switch::exec_start) + [`exec_step`](Switch::exec_step)
    /// until done, without moving the PHV in and out of an [`Execution`].
    #[inline]
    fn run_stages(&mut self, pipeline: Pipeline, pipe: u16, phv: &mut Phv) {
        let stages = match pipeline {
            Pipeline::Ingress => self.spec.ingress_stages,
            Pipeline::Egress => self.spec.egress_stages,
        };
        let pipe = usize::from(pipe.min(self.config.num_pipes - 1));
        for stage in 0..stages {
            if phv.dropped {
                break;
            }
            self.run_stage(pipeline, stage, pipe, phv);
        }
    }

    /// Run a full pipeline over a PHV (fast path for tests/benches).
    pub fn run_pipeline(&mut self, mut phv: Phv, pipeline: Pipeline) -> Phv {
        let pipe = self.exec_pipe(&phv, pipeline);
        self.run_stages(pipeline, pipe, &mut phv);
        phv
    }

    /// Publish per-table lookup/hit counters as telemetry gauges (no-op on
    /// a disabled handle), over every pipe's packets. Called explicitly — e.g.
    /// by the bench/figures profiling paths — rather than per packet, so
    /// the hot path stays free of telemetry work and existing golden
    /// traces are unaffected.
    pub fn publish_table_stats(&self) {
        let tel = self.telemetry();
        if !tel.is_enabled() {
            return;
        }
        for (t, tspec) in self.tables.iter().zip(&self.spec.tables) {
            let name = &tspec.name;
            tel.gauge_set(&format!("table.{name}.lookups"), t.lookups as i128);
            tel.gauge_set(&format!("table.{name}.hits"), t.hits as i128);
        }
    }

    // -- driver API -----------------------------------------------------------

    /// Install an entry, matched by packets of every pipe.
    pub fn table_add(
        &mut self,
        table: TableId,
        key: Vec<KeyField>,
        priority: u32,
        action: ActionId,
        action_data: impl AsRef<[Value]>,
    ) -> Result<EntryHandle, DriverError> {
        let tspec = &self.spec.tables[table.0 as usize];
        // Arity must be checked before normalization: `normalize_key` zips
        // against the spec and would silently truncate an over-long key.
        if key.len() != tspec.key.len() {
            return Err(DriverError::Table(TableError::KeyArityMismatch {
                expected: tspec.key.len(),
                got: key.len(),
            }));
        }
        let key = Table::normalize_key(tspec, key);
        let (arity, data) = fit_action_data(&self.spec, table, action, action_data.as_ref())?;
        let t = &mut self.tables[table.0 as usize];
        Ok(t.add_entry(tspec, key, priority, action, data, arity)?)
    }

    pub fn table_mod(
        &mut self,
        table: TableId,
        handle: EntryHandle,
        action: ActionId,
        action_data: impl AsRef<[Value]>,
    ) -> Result<(), DriverError> {
        let (arity, data) = fit_action_data(&self.spec, table, action, action_data.as_ref())?;
        let tspec = &self.spec.tables[table.0 as usize];
        let t = &mut self.tables[table.0 as usize];
        Ok(t.mod_entry(tspec, handle, action, data, arity)?)
    }

    pub fn table_del(&mut self, table: TableId, handle: EntryHandle) -> Result<(), DriverError> {
        self.tables[table.0 as usize].del_entry(handle)?;
        Ok(())
    }

    /// Open a checkpoint of one table and name it with a token unique on
    /// this switch. Real drivers keep a software shadow of every table; a
    /// checkpoint is a mark on that shadow's undo journal (see the
    /// [`table`](crate::table) module docs), so taking one costs nothing
    /// and holding one costs an inverse op per mutation.
    ///
    /// Tokens of one table form a stack: [`table_restore`](Self::table_restore)
    /// keeps the token it restores and retires every younger token of that
    /// table. Restoring is handle-stable: handles live at checkpoint time
    /// resolve again, handles allocated after it vanish and are reissued.
    pub fn table_checkpoint(&mut self, table: TableId) -> u64 {
        let token = self.next_checkpoint;
        self.next_checkpoint += 1;
        self.tables[table.0 as usize].checkpoint(token);
        token
    }

    /// The table whose journal holds a live checkpoint token.
    pub fn checkpoint_table(&self, token: u64) -> Option<TableId> {
        let t = self.tables.iter().position(|t| t.has_checkpoint(token))?;
        Some(TableId(t as u32))
    }

    /// Roll a table — its entries and every pipe's default — back to a
    /// live checkpoint of it. A token its journal does not hold (dead, or
    /// taken of another table) and a table out of range are refused.
    pub fn table_restore(&mut self, table: TableId, token: u64) -> Result<(), DriverError> {
        let t = table.0 as usize;
        let pair = self.tables.get_mut(t).zip(self.spec.tables.get(t));
        if !pair.is_some_and(|(tbl, tspec)| tbl.restore(tspec, token)) {
            return Err(TableError::UnknownHandle(EntryHandle(token)).into());
        }
        Ok(())
    }

    /// Drop a checkpoint; a dead token is ignored.
    pub fn checkpoint_discard(&mut self, token: u64) {
        if let Some(t) = self.tables.iter_mut().find(|t| t.has_checkpoint(token)) {
            t.discard(token);
        }
    }

    /// Set a table's default action in every pipe.
    pub fn table_set_default(
        &mut self,
        table: TableId,
        action: ActionId,
        action_data: impl AsRef<[Value]>,
    ) -> Result<(), DriverError> {
        let (_, data) = fit_action_data(&self.spec, table, action, action_data.as_ref())?;
        self.tables[table.0 as usize].set_default(None, action, data);
        Ok(())
    }

    /// Set a table's default action in a *single* pipe. This is the
    /// primitive behind per-pipe version-variable flips: one pipe commits
    /// to the new config while others still serve the old one.
    pub fn table_set_default_on(
        &mut self,
        pipe: u16,
        table: TableId,
        action: ActionId,
        action_data: impl AsRef<[Value]>,
    ) -> Result<(), DriverError> {
        if pipe >= self.config.num_pipes {
            return Err(DriverError::BadPipe(pipe));
        }
        let (_, data) = fit_action_data(&self.spec, table, action, action_data.as_ref())?;
        self.tables[table.0 as usize].set_default(Some(pipe), action, data);
        Ok(())
    }

    /// Entry count.
    pub fn table_len(&self, table: TableId) -> usize {
        self.tables[table.0 as usize].len()
    }

    /// A table: its entries, and each pipe's default through
    /// [`Table::default_action_on`].
    pub fn table_ref(&self, table: TableId) -> &Table {
        &self.tables[table.0 as usize]
    }

    /// Read a register range aggregated across pipes with [`ReadAgg::Sum`]
    /// — the right default for data-plane counters, and the identity at
    /// `num_pipes = 1`.
    pub fn register_read_range(&self, reg: RegisterId, lo: u32, hi: u32) -> Vec<Value> {
        let mut out = Vec::new();
        self.register_read_agg_into(reg, lo, hi, ReadAgg::Sum, &mut out);
        out
    }

    /// Read a register range, combining per-pipe values element-wise, into
    /// a vector the caller keeps: `out` is cleared and refilled, its
    /// capacity reused.
    pub fn register_read_agg_into(
        &self,
        reg: RegisterId,
        lo: u32,
        hi: u32,
        agg: ReadAgg,
        out: &mut Vec<Value>,
    ) {
        out.clear();
        out.extend_from_slice(self.registers[0][reg.0 as usize].range(lo, hi));
        for p in &self.registers[1..] {
            let vals = p[reg.0 as usize].range(lo, hi);
            for (a, v) in out.iter_mut().zip(vals) {
                *a = match agg {
                    ReadAgg::Sum => a.wrapping_add(*v),
                    ReadAgg::Max => {
                        if v.bits() > a.bits() {
                            *v
                        } else {
                            *a
                        }
                    }
                };
            }
        }
    }

    /// Read a register range from a single pipe (no aggregation).
    pub fn register_read_range_on(
        &self,
        pipe: u16,
        reg: RegisterId,
        lo: u32,
        hi: u32,
    ) -> Vec<Value> {
        self.registers[pipe as usize][reg.0 as usize].read_range(lo, hi)
    }

    /// Control-plane register write, fanned out to every pipe. Registers
    /// written this way should be read back with [`ReadAgg::Max`] (or
    /// per-pipe) — a sum would multiply the value by `num_pipes`.
    pub fn register_write(&mut self, reg: RegisterId, index: u32, value: Value) {
        for p in &mut self.registers {
            p[reg.0 as usize].write(index as usize, value);
        }
    }

    pub fn port_set_up(&mut self, port: PortId, up: bool) -> Result<(), DriverError> {
        let p = self.ports.get_mut(usize::from(port));
        p.ok_or(DriverError::BadPort(port))?.up = up;
        Ok(())
    }

    pub fn port(&self, port: PortId) -> Option<&PortState> {
        self.ports.get(usize::from(port))
    }

    // -- name-based conveniences (examples and tests) -------------------------

    pub fn table_id(&self, name: &str) -> Result<TableId, DriverError> {
        self.spec
            .table_id(name)
            .ok_or_else(|| DriverError::UnknownTable(name.into()))
    }

    pub fn action_id(&self, name: &str) -> Result<ActionId, DriverError> {
        self.spec
            .action_id(name)
            .ok_or_else(|| DriverError::UnknownAction(name.into()))
    }

    pub fn register_id(&self, name: &str) -> Result<RegisterId, DriverError> {
        self.spec
            .register_id(name)
            .ok_or_else(|| DriverError::UnknownRegister(name.into()))
    }

    pub fn field_id(&self, instance: &str, field: &str) -> Option<FieldId> {
        self.spec.field_id(instance, field)
    }
}

/// Check that `action` belongs to `table` and that `data` has one value
/// per parameter, then copy the data, resized to the parameter widths,
/// behind the `Arc` the table keeps — the one allocation a table write
/// makes. Returns the action's arity beside it.
fn fit_action_data(
    spec: &DataPlaneSpec,
    table: TableId,
    action: ActionId,
    data: &[Value],
) -> Result<(usize, Arc<[Value]>), TableError> {
    if !spec.tables[table.0 as usize].actions.contains(&action) {
        return Err(TableError::UnknownAction(action));
    }
    let widths = &spec.actions[action.0 as usize].param_widths;
    if data.len() != widths.len() {
        return Err(TableError::ActionDataArity {
            expected: widths.len(),
            got: data.len(),
        });
    }
    let fitted = data.iter().zip(widths).map(|(v, w)| v.resize(*w));
    Ok((widths.len(), fitted.collect()))
}

/// Build a switch directly from plain-P4 source (test/example convenience).
pub fn switch_from_source(
    src: &str,
    config: SwitchConfig,
    clock: Clock,
) -> Result<Switch, Box<dyn std::error::Error>> {
    let prog = p4r_lang::parse_program(src)?;
    let spec = spec::load(&prog)?;
    Ok(Switch::new(spec, config, clock))
}

#[cfg(test)]
mod queue_property;

#[cfg(test)]
mod tests {
    use super::*;

    const L2: &str = r#"
header_type eth_t { fields { dst : 48; src : 48; etype : 16; } }
header eth_t eth;
register rx_bytes { width : 64; instance_count : 4; }
register qdepths { width : 32; instance_count : 32; }
action fwd(port) { modify_field(intr.egress_spec, port); }
action fwd_count(port, idx) {
    modify_field(intr.egress_spec, port);
    register_write(rx_bytes, idx, intr.pkt_len);
}
action to_drop() { drop(); }
table l2 {
    reads { eth.dst : exact; }
    actions { fwd; fwd_count; to_drop; }
    default_action : to_drop();
    size : 128;
}
control ingress { apply(l2); }
"#;

    fn mk() -> Switch {
        switch_from_source(L2, SwitchConfig::default(), Clock::new()).unwrap()
    }

    fn add_fwd(sw: &mut Switch, dst: u128, port: u64) -> EntryHandle {
        let t = sw.table_id("l2").unwrap();
        let a = sw.action_id("fwd").unwrap();
        sw.table_add(
            t,
            vec![KeyField::Exact(Value::new(dst, 48))],
            0,
            a,
            vec![Value::new(port as u128, 64)],
        )
        .unwrap()
    }

    #[test]
    fn forwards_matching_packet() {
        let mut sw = mk();
        add_fwd(&mut sw, 0xAA, 3);
        let accepted = sw.inject(&PacketDesc::new(1).field("eth", "dst", 0xAA).payload(100));
        assert!(accepted);
        sw.clock().advance(10_000);
        sw.pump();
        let tx = sw.take_transmitted();
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].port, 3);
        assert_eq!(sw.stats.tx, 1);
    }

    /// The switch records into the registry as it goes: what an `inject`
    /// or a `pump` recorded is there when it returns, byte for byte what
    /// recording the same packets by name would leave.
    #[test]
    fn pump_records_reach_the_registry_on_return_or_on_flush() {
        let tel = Telemetry::shared();
        let mut sw = mk();
        sw.set_telemetry(tel.clone());
        add_fwd(&mut sw, 0xAA, 3);
        let pkt = PacketDesc::new(1).field("eth", "dst", 0xAA).payload(100);
        for _ in 0..3 {
            sw.inject(&pkt);
        }
        assert_eq!(tel.counter("switch.rx"), 3);
        assert_eq!(tel.gauge("tm.q3_depth_bytes"), 3 * 114);
        sw.clock().advance(10_000);
        assert_eq!(sw.pump(), 3);
        let seen = tel.snapshot();
        assert_eq!((seen.counter("switch.tx"), seen.events_buffered), (3, 6));
        assert_eq!(seen.gauge("tm.q3_depth_bytes"), 0);
        // The same records made by name, in packet order.
        let direct = Telemetry::shared();
        for depth in [114, 228, 342] {
            direct.counter_add("switch.rx", 1);
            direct.gauge_set("tm.q3_depth_bytes", depth);
        }
        let (mut at, wire) = (0, sw.wire_time(114));
        for depth in [228, 114, 0] {
            let start = at.max(sw.egress_ns);
            direct.gauge_set("tm.q3_depth_bytes", depth);
            direct.span_begin(Scope::Switch, "egress_pass", start);
            direct.span_end(Scope::Switch, "egress_pass", start + wire);
            direct.counter_add("switch.tx", 1);
            at = start + wire;
        }
        assert_eq!(direct.chrome_trace_json(), tel.chrome_trace_json());
        assert_eq!(direct.snapshot_json(), tel.snapshot_json());
    }

    #[test]
    fn default_action_drops_miss() {
        let mut sw = mk();
        add_fwd(&mut sw, 0xAA, 3);
        assert!(!sw.inject(&PacketDesc::new(1).field("eth", "dst", 0xBB)));
        assert_eq!(sw.stats.dropped_ingress, 1);
    }

    #[test]
    fn register_write_from_action() {
        let mut sw = mk();
        let t = sw.table_id("l2").unwrap();
        let a = sw.action_id("fwd_count").unwrap();
        sw.table_add(
            t,
            vec![KeyField::Exact(Value::new(0xCC, 48))],
            0,
            a,
            vec![Value::new(2, 64), Value::new(1, 64)],
        )
        .unwrap();
        sw.inject(&PacketDesc::new(0).field("eth", "dst", 0xCC).payload(50));
        let r = sw.register_id("rx_bytes").unwrap();
        let vals = sw.register_read_range(r, 1, 1);
        // 14 bytes of eth header + 50 payload
        assert_eq!(vals[0].as_u64(), 64);
    }

    #[test]
    fn port_down_drops_rx() {
        let mut sw = mk();
        add_fwd(&mut sw, 0xAA, 3);
        sw.port_set_up(1, false).unwrap();
        assert!(!sw.inject(&PacketDesc::new(1).field("eth", "dst", 0xAA)));
        assert_eq!(sw.stats.dropped_port_down, 1);
    }

    #[test]
    fn queue_depth_register_mirrors() {
        let mut sw = mk();
        sw.bind_queue_depth_register("qdepths").unwrap();
        add_fwd(&mut sw, 0xAA, 5);
        sw.inject(&PacketDesc::new(1).field("eth", "dst", 0xAA).payload(86)); // 100B frame
        let r = sw.register_id("qdepths").unwrap();
        assert_eq!(sw.register_read_range(r, 5, 5)[0].as_u64(), 100);
        assert_eq!(sw.queue_depth(5), 100);
        sw.clock().advance(1_000_000);
        sw.pump();
        assert_eq!(sw.register_read_range(r, 5, 5)[0].as_u64(), 0);
    }

    #[test]
    fn tail_drop_when_queue_full() {
        let mut sw = switch_from_source(
            L2,
            SwitchConfig {
                queue_capacity_bytes: 150,
                ..Default::default()
            },
            Clock::new(),
        )
        .unwrap();
        add_fwd(&mut sw, 0xAA, 2);
        assert!(sw.inject(&PacketDesc::new(0).field("eth", "dst", 0xAA).payload(86)));
        assert!(!sw.inject(&PacketDesc::new(0).field("eth", "dst", 0xAA).payload(86)));
        assert_eq!(sw.stats.dropped_queue, 1);
        assert_eq!(sw.port(2).unwrap().queue_drops, 1);
    }

    #[test]
    fn wire_time_matches_rate() {
        // 1250 bytes = 10000 bits at 25 Gbps = 400 ns.
        let mut sw = mk();
        assert_eq!(sw.wire_time(1250), 400);
    }

    /// The memo answers for the last length only, and a rate too slow to
    /// fit the answer in `Nanos` saturates instead of wrapping.
    #[test]
    fn wire_time_follows_the_length_and_saturates() {
        let mut sw = mk(); // 25 Gbps
        assert_eq!([1250, 125, 1250].map(|b| sw.wire_time(b)), [400, 40, 400]);
        let config = SwitchConfig {
            port_rate_bps: 1,
            ..SwitchConfig::default()
        };
        let mut slow = switch_from_source(L2, config, Clock::new()).unwrap();
        assert_eq!(slow.wire_time(u32::MAX), Nanos::MAX);
    }

    #[test]
    fn staged_execution_interleaves_updates() {
        // A two-stage program: stage0 writes meta from table t0 (entry's
        // action data), stage1 copies meta into a register. Modifying t0
        // *between* stage0 and stage1 of an in-flight packet must not
        // affect that packet (it already read t0).
        let src = r#"
header_type m_t { fields { x : 16; } }
metadata m_t m;
register out { width : 16; instance_count : 1; }
action set_x(v) { modify_field(m.x, v); }
action save() { register_write(out, 0, m.x); }
table t0 { actions { set_x; } default_action : set_x(7); }
table t1 { actions { save; } default_action : save(); }
control ingress { apply(t0); apply(t1); }
"#;
        let mut sw = switch_from_source(src, SwitchConfig::default(), Clock::new()).unwrap();
        let t0 = sw.table_id("t0").unwrap();
        let set_x = sw.action_id("set_x").unwrap();

        let phv = Phv::new(sw.spec());
        let mut exec = sw.exec_start(phv, Pipeline::Ingress);
        sw.exec_step(&mut exec); // stage 0: m.x = 7
                                 // Control plane changes the default action mid-flight.
        sw.table_set_default(t0, set_x, vec![Value::new(99, 16)])
            .unwrap();
        sw.exec_step(&mut exec); // stage 1: out[0] = m.x
        assert!(exec.done());
        let r = sw.register_id("out").unwrap();
        assert_eq!(sw.register_read_range(r, 0, 0)[0].as_u64(), 7);

        // The next packet sees the new configuration.
        let phv = Phv::new(sw.spec());
        sw.run_pipeline(phv, Pipeline::Ingress);
        assert_eq!(sw.register_read_range(r, 0, 0)[0].as_u64(), 99);
    }

    #[test]
    fn recirculation_counts_and_limits() {
        // Everything forwards to the recirc port; the loop guard kicks in.
        let src = r#"
header_type m_t { fields { x : 8; } }
metadata m_t m;
action loop_it() { modify_field(intr.egress_spec, 68); }
table t { actions { loop_it; } default_action : loop_it(); }
control ingress { apply(t); }
"#;
        let cfg = SwitchConfig {
            recirc_limit: 3,
            ..Default::default()
        };
        let mut sw = switch_from_source(src, cfg, Clock::new()).unwrap();
        sw.inject(&PacketDesc::new(0).payload(60));
        for _ in 0..10 {
            sw.clock().advance(1_000_000);
            sw.pump();
        }
        assert_eq!(sw.stats.recirculated, 3);
        assert_eq!(sw.stats.tx, 0);
    }

    #[test]
    fn hash_action_spreads_ports() {
        let src = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
field_list flow { ip.src; ip.dst; }
field_list_calculation ecmp_hash {
    input { flow; }
    algorithm : crc16;
    output_width : 16;
}
action pick(base) {
    modify_field_with_hash_based_offset(intr.egress_spec, base, ecmp_hash, 4);
}
table t { actions { pick; } default_action : pick(8); }
control ingress { apply(t); }
"#;
        let mut sw = switch_from_source(src, SwitchConfig::default(), Clock::new()).unwrap();
        let mut ports = std::collections::HashSet::new();
        for i in 0..64u128 {
            let phv = PacketDesc::new(0)
                .field("ip", "src", i)
                .field("ip", "dst", 99)
                .build(sw.spec());
            let out = sw.run_pipeline(phv, Pipeline::Ingress);
            let p = out.egress_spec(sw.spec());
            assert!((8..12).contains(&p), "port {p} out of ECMP range");
            ports.insert(p);
        }
        assert!(ports.len() > 1, "hash did not spread flows");
    }

    // -- multi-pipe -----------------------------------------------------------

    fn mk_pipes(n: u16) -> Switch {
        switch_from_source(
            L2,
            SwitchConfig {
                num_pipes: n,
                ..Default::default()
            },
            Clock::new(),
        )
        .unwrap()
    }

    #[test]
    fn port_pipe_map_is_contiguous() {
        let sw = mk_pipes(4); // 32 ports → 8 per pipe
        assert_eq!(sw.num_pipes(), 4);
        let pipes: Vec<u16> = (0..32).map(|p| sw.pipe_of_port(p)).collect();
        assert_eq!(pipes, (0..32).map(|p| p / 8).collect::<Vec<u16>>());
        assert!(sw.port(31).is_some());
        assert!(sw.port(32).is_none() && sw.port(68).is_none()); // recirc port is off-panel
        assert_eq!(sw.pipe_of_port(68), 3); // ...but clamps for execution
    }

    #[test]
    fn zero_pipes_normalizes_to_one() {
        let sw = mk_pipes(0);
        assert_eq!(sw.num_pipes(), 1);
        assert_eq!(sw.config().num_pipes, 1);
    }

    /// A packet to `dst` into each pipe of a 32-port switch of `pipes`
    /// pipes (port 1 of each pipe's block): which were accepted into a
    /// queue.
    fn accepted_per_pipe(sw: &mut Switch, pipes: u16, dst: u128) -> Vec<bool> {
        let port = |p: u16| 1 + p * (32 / pipes);
        (0..pipes)
            .map(|p| sw.inject(&PacketDesc::new(port(p)).field("eth", "dst", dst)))
            .collect()
    }

    #[test]
    fn table_add_fans_out_to_all_pipes() {
        let mut sw = mk_pipes(4);
        add_fwd(&mut sw, 0xAA, 3);
        // A packet in every pipe hits the one entry and is forwarded.
        assert_eq!(accepted_per_pipe(&mut sw, 4, 0xAA), [true; 4]);
        sw.clock().advance(10_000);
        sw.pump();
        assert_eq!(sw.stats.tx, 4);
        assert_eq!(sw.port(3).unwrap().tx_packets, 4);
        // A miss in every pipe takes that pipe's (drop) default.
        assert_eq!(accepted_per_pipe(&mut sw, 4, 0xBB), [false; 4]);
        assert_eq!(sw.table_ref(sw.table_id("l2").unwrap()).len(), 1);
    }

    /// Cell `i` of register `r`, the maximum over pipes.
    fn read_max(sw: &Switch, r: RegisterId, i: u32) -> u64 {
        let mut out = Vec::new();
        sw.register_read_agg_into(r, i, i, ReadAgg::Max, &mut out);
        out[0].as_u64()
    }

    #[test]
    fn data_plane_registers_are_per_pipe_and_sum_aggregates() {
        let mut sw = mk_pipes(4);
        let t = sw.table_id("l2").unwrap();
        let a = sw.action_id("fwd_count").unwrap();
        sw.table_add(
            t,
            vec![KeyField::Exact(Value::new(0xCC, 48))],
            0,
            a,
            vec![Value::new(2, 64), Value::new(1, 64)],
        )
        .unwrap();
        // One packet in pipe 0 (port 1), one in pipe 1 (port 9); each
        // writes its 64-byte frame length into its own pipe's register.
        sw.inject(&PacketDesc::new(1).field("eth", "dst", 0xCC).payload(50));
        sw.inject(&PacketDesc::new(9).field("eth", "dst", 0xCC).payload(50));
        let r = sw.register_id("rx_bytes").unwrap();
        assert_eq!(sw.register_read_range_on(0, r, 1, 1)[0].as_u64(), 64);
        assert_eq!(sw.register_read_range_on(1, r, 1, 1)[0].as_u64(), 64);
        assert_eq!(sw.register_read_range_on(2, r, 1, 1)[0].as_u64(), 0);
        assert_eq!(sw.register_read_range(r, 1, 1)[0].as_u64(), 128); // Sum
        assert_eq!(read_max(&sw, r, 1), 64);
    }

    #[test]
    fn control_register_write_fans_out() {
        let mut sw = mk_pipes(2);
        let r = sw.register_id("rx_bytes").unwrap();
        sw.register_write(r, 3, Value::new(7, 64));
        assert_eq!(sw.register_read_range_on(0, r, 3, 3)[0].as_u64(), 7);
        assert_eq!(sw.register_read_range_on(1, r, 3, 3)[0].as_u64(), 7);
        assert_eq!(read_max(&sw, r, 3), 7);
        // A packet in pipe 1 (port 17) writes its 64-byte frame length over
        // pipe 1's copy only.
        let t = sw.table_id("l2").unwrap();
        let a = sw.action_id("fwd_count").unwrap();
        let key = vec![KeyField::Exact(Value::new(0xCC, 48))];
        let data = [Value::new(2, 64), Value::new(3, 64)];
        sw.table_add(t, key, 0, a, data).unwrap();
        sw.inject(&PacketDesc::new(17).field("eth", "dst", 0xCC).payload(50));
        assert_eq!(sw.register_read_range_on(0, r, 3, 3)[0].as_u64(), 7);
        assert_eq!(sw.register_read_range_on(1, r, 3, 3)[0].as_u64(), 64);
        assert_eq!(read_max(&sw, r, 3), 64);
    }

    #[test]
    fn per_pipe_default_flip_is_isolated() {
        let mut sw = mk_pipes(2);
        let t = sw.table_id("l2").unwrap();
        let fwd = sw.action_id("fwd").unwrap();
        // Pipe 1 forwards misses to port 2; pipe 0 keeps the drop default.
        sw.table_set_default_on(1, t, fwd, vec![Value::new(2, 64)])
            .unwrap();
        assert!(!sw.inject(&PacketDesc::new(1).field("eth", "dst", 0xEE))); // pipe 0 drops
        assert!(sw.inject(&PacketDesc::new(17).field("eth", "dst", 0xEE))); // pipe 1 forwards
        assert_eq!(
            sw.table_set_default_on(2, t, fwd, vec![Value::new(2, 64)]),
            Err(DriverError::BadPipe(2))
        );
    }

    #[test]
    fn checkpoint_restore_spans_pipes_and_keeps_handles_stable() {
        let mut sw = mk_pipes(2);
        let t = sw.table_id("l2").unwrap();
        let h1 = add_fwd(&mut sw, 0xAA, 3);
        let cp = sw.table_checkpoint(t);
        let h2 = add_fwd(&mut sw, 0xBB, 4);
        assert_ne!(h1, h2);
        // Pipe 1 forwards misses while the checkpoint is open.
        let fwd = sw.action_id("fwd").unwrap();
        sw.table_set_default_on(1, t, fwd, [Value::new(2, 64)])
            .unwrap();
        assert_eq!(accepted_per_pipe(&mut sw, 2, 0xEE), [false, true]);
        sw.table_restore(t, cp).unwrap();
        // In both pipes 0xAA hits, 0xBB is gone, and a miss drops again.
        assert_eq!(accepted_per_pipe(&mut sw, 2, 0xAA), [true, true]);
        assert_eq!(accepted_per_pipe(&mut sw, 2, 0xBB), [false, false]);
        assert_eq!(accepted_per_pipe(&mut sw, 2, 0xEE), [false, false]);
        // The handle counter rewinds with the checkpoint, and re-adding
        // reuses the same handle.
        let h3 = add_fwd(&mut sw, 0xBB, 4);
        assert_eq!(h2, h3);
        assert_eq!(accepted_per_pipe(&mut sw, 2, 0xBB), [true, true]);
        sw.table_del(t, h3).unwrap();
        assert_eq!(accepted_per_pipe(&mut sw, 2, 0xBB), [false, false]);
        // The restored token is good for another attempt; a discarded one
        // is refused.
        sw.table_restore(t, cp).unwrap();
        sw.checkpoint_discard(cp);
        assert_eq!(
            sw.table_restore(t, cp),
            Err(DriverError::Table(TableError::UnknownHandle(EntryHandle(
                cp
            ))))
        );
    }

    /// Every table write refuses action data of the wrong length, and
    /// changes nothing when it does.
    #[test]
    fn table_writes_refuse_action_data_of_the_wrong_length() {
        let mut sw = mk_pipes(2);
        let t = sw.table_id("l2").unwrap();
        let fwd = sw.action_id("fwd").unwrap(); // fwd(port): one parameter
        let h = add_fwd(&mut sw, 0xAA, 3);
        let key = || vec![KeyField::Exact(Value::new(0xBB, 48))];
        for data in [vec![], vec![Value::new(3, 64); 3]] {
            let got = data.len();
            let refused = DriverError::Table(TableError::ActionDataArity { expected: 1, got });
            assert_eq!(sw.table_add(t, key(), 0, fwd, &data), Err(refused.clone()));
            assert_eq!(sw.table_mod(t, h, fwd, &data), Err(refused.clone()));
            assert_eq!(sw.table_set_default(t, fwd, &data), Err(refused.clone()));
            assert_eq!(sw.table_set_default_on(1, t, fwd, &data), Err(refused));
        }
        assert_eq!(sw.table_len(t), 1);
        assert_eq!(accepted_per_pipe(&mut sw, 2, 0xAA), [true, true]);
        assert_eq!(accepted_per_pipe(&mut sw, 2, 0xBB), [false, false]);
    }

    #[test]
    fn qdepth_mirrors_into_owning_pipe_only() {
        let mut sw = mk_pipes(4);
        sw.bind_queue_depth_register("qdepths").unwrap();
        add_fwd(&mut sw, 0xAA, 9); // port 9 → pipe 1
        sw.inject(&PacketDesc::new(1).field("eth", "dst", 0xAA).payload(86)); // 100B frame
        let r = sw.register_id("qdepths").unwrap();
        assert_eq!(sw.register_read_range_on(1, r, 9, 9)[0].as_u64(), 100);
        assert_eq!(sw.register_read_range_on(0, r, 9, 9)[0].as_u64(), 0);
        // The aggregated (Sum) view reconstructs the panel.
        assert_eq!(sw.register_read_range(r, 9, 9)[0].as_u64(), 100);
    }

    #[test]
    fn port_state_lives_in_owning_pipe() {
        let mut sw = mk_pipes(4);
        add_fwd(&mut sw, 0xAA, 3);
        sw.port_set_up(9, false).unwrap(); // pipe 1
        assert!(!sw.inject(&PacketDesc::new(9).field("eth", "dst", 0xAA)));
        assert_eq!(sw.stats.dropped_port_down, 1);
        // Same local index in pipe 0 (port 1) is unaffected.
        assert!(sw.inject(&PacketDesc::new(1).field("eth", "dst", 0xAA)));
        assert!(sw.port(1).unwrap().up);
        assert!(!sw.port(9).unwrap().up);
        assert!(sw.port_set_up(1000, false).is_err());
    }
}
