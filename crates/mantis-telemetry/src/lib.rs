//! Virtual-clock-native observability for the Mantis stack.
//!
//! Everything in the simulator runs on a shared virtual clock, so
//! telemetry here is *deterministic*: two runs with the same seed
//! produce byte-identical traces and snapshots. The crate deliberately
//! has no dependencies and no notion of wall time — callers pass
//! virtual-clock timestamps (`Nanos`) into every recording call.
//!
//! Three facilities share one [`Telemetry`] handle:
//!
//! * a **tracer** — a fixed-capacity ring buffer of span begin/end and
//!   instant events, exportable as Chrome `trace_event` JSON
//!   ([`Telemetry::chrome_trace_json`]) that loads directly into
//!   Perfetto / `chrome://tracing`;
//! * a **metrics registry** — counters, gauges, and log-linear
//!   histograms with p50/p95/p99 snapshots
//!   ([`Telemetry::snapshot`], [`Telemetry::snapshot_json`]);
//! * **reaction-loop profiling conventions** — the agent records its
//!   dialogue phases as spans ([`scopes`]) and each driver op into
//!   per-op histograms, so a single trace shows where a reaction
//!   window went.
//!
//! Names are resolved once, not per record: a registry interns every
//! metric and event name into a name table and hands out copyable
//! handles ([`CounterId`], [`GaugeId`], [`HistId`], [`NameId`]). Values
//! live in slots indexed by handle and trace events are fixed-size
//! records, so a record call through a handle allocates nothing, formats
//! nothing and compares no strings — cheap enough to leave on along the
//! packet path. The by-name calls (`counter_add("x", 1)`) remain for
//! set-up code, tests and one-off names; they intern and then take the
//! same path (DESIGN.md §6).
//!
//! The registry is `Arc`-shared by everything that runs on the one thread
//! of a simulation — switches, agents, the driver, channel and plane
//! beneath an agent — and each record lands in its slot, or in the ring,
//! when it is made. So records land in program order, which is what makes
//! two runs of one seed export the same bytes.

use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Virtual-clock timestamp, nanoseconds. Mirrors `rmt_sim::Nanos`
/// without depending on it (this crate sits below the whole stack).
pub type Nanos = u64;

/// Trace scopes, rendered as named "threads" in the Chrome trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// The control-plane agent's dialogue loop.
    Agent,
    /// The Mantis driver (P4Runtime-ish op costs, locking).
    Driver,
    /// The RMT pipeline (stages, parser/deparser).
    Switch,
    /// The traffic manager (queues, scheduling).
    TrafficManager,
    /// The host/network simulation (flows, drops, marks).
    NetSim,
    /// Benchmark harness bookkeeping.
    Bench,
}

impl Scope {
    /// Stable Chrome-trace thread id for the scope.
    pub fn tid(self) -> u32 {
        match self {
            Scope::Agent => 1,
            Scope::Driver => 2,
            Scope::Switch => 3,
            Scope::TrafficManager => 4,
            Scope::NetSim => 5,
            Scope::Bench => 6,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scope::Agent => "agent",
            Scope::Driver => "driver",
            Scope::Switch => "switch",
            Scope::TrafficManager => "traffic-manager",
            Scope::NetSim => "netsim",
            Scope::Bench => "bench",
        }
    }

    const ALL: [Scope; 6] = [
        Scope::Agent,
        Scope::Driver,
        Scope::Switch,
        Scope::TrafficManager,
        Scope::NetSim,
        Scope::Bench,
    ];
}

/// Span / metric naming conventions used across the workspace, kept in
/// one place so instrumentation sites and consumers (bench, tests)
/// cannot drift apart.
pub mod scopes {
    /// One full dialogue iteration (measure → react → update → sync).
    pub const SPAN_ITERATION: &str = "iteration";
    /// Phase 1: write the master sequence register + batched reads.
    pub const SPAN_MEASURE: &str = "measure";
    /// Phase 2: run user reactions against the measurement snapshot.
    pub const SPAN_REACT: &str = "react";
    /// Phase 3: apply staged malleable updates (prepare + commit).
    pub const SPAN_UPDATE: &str = "update";
    /// Phase 4: mirror committed state into the agent's shadow copy.
    pub const SPAN_SYNC: &str = "sync";

    /// Histogram of per-iteration busy time.
    pub const HIST_ITERATION_NS: &str = "agent.iteration_ns";
    pub const HIST_MEASURE_NS: &str = "agent.measure_ns";
    pub const HIST_REACT_NS: &str = "agent.react_ns";
    pub const HIST_UPDATE_NS: &str = "agent.update_ns";
    pub const HIST_SYNC_NS: &str = "agent.sync_ns";

    /// Total iterations / busy nanoseconds (drive `run_paced` stats).
    pub const CTR_ITERATIONS: &str = "agent.iterations";
    pub const CTR_BUSY_NS: &str = "agent.busy_ns";
    pub const CTR_STAGED_TABLE_OPS: &str = "agent.staged_table_ops";

    /// Per-driver-op latency histograms (`driver.<op>_ns`) and call
    /// counters (`driver.<op>_calls`) are derived from the op name via
    /// [`super::Telemetry::driver_op`].
    pub const DRIVER_OP_PREFIX: &str = "driver.";

    // -- fault tolerance (DESIGN.md §8) --------------------------------

    /// Faults injected by a `mantis-faults` plan into driver ops.
    pub const CTR_FAULTS_INJECTED: &str = "fault.injected";
    /// Driver-op retries performed by the agent.
    pub const CTR_RETRIES: &str = "agent.retries";
    /// Transactional rollbacks of the malleable-update phase.
    pub const CTR_ROLLBACKS: &str = "agent.rollbacks";
    /// Reaction executions skipped because their breaker was open.
    pub const CTR_QUARANTINE_SKIPS: &str = "agent.quarantined";
    /// Histogram of virtual-clock retry backoffs.
    pub const HIST_RETRY_BACKOFF_NS: &str = "agent.retry_backoff_ns";
    /// Currently quarantined (breaker-open) reactions.
    pub const GAUGE_QUARANTINED: &str = "agent.quarantined_reactions";
    /// 1 while at least one reaction is quarantined (degraded mode).
    pub const GAUGE_DEGRADED: &str = "agent.degraded";

    // -- remote control plane (DESIGN.md §11) ---------------------------

    /// Control-channel frames transmitted (every attempt, retries and
    /// injected duplicates included).
    pub const CTR_CONTROL_FRAMES: &str = "control.frames";
    /// Control-channel bytes transmitted.
    pub const CTR_CONTROL_BYTES: &str = "control.bytes";
    /// Request frames lost to an injected channel fault.
    pub const CTR_CONTROL_DROPS: &str = "control.frames_dropped";
    /// Frames delivered twice by an injected channel fault (the endpoint
    /// deduplicates by sequence number).
    pub const CTR_CONTROL_DUPS: &str = "control.frames_duplicated";
    /// Driver ops carried per request frame (batching effectiveness).
    pub const HIST_CONTROL_BATCH: &str = "control.batch_size";
    /// Virtual-time round-trip latency per successful request frame.
    pub const HIST_CONTROL_RTT_NS: &str = "control.rtt_ns";
    /// Driver ops that failed with an injected fault, mirrored from
    /// `DriverStats.injected_failures` (recorded only when faults fire, so
    /// fault-free traces stay byte-identical).
    pub const CTR_DRIVER_INJECTED: &str = "driver.injected_failures";

    // -- multi-pipe (DESIGN.md §9) -------------------------------------

    /// Name a metric scoped to one hardware pipe (`pipe<p>.<name>`).
    /// Multi-pipe switches label per-pipe counters this way; a
    /// single-pipe switch emits the unprefixed name so existing traces
    /// stay byte-identical.
    pub fn pipe_metric(pipe: u16, name: &str) -> String {
        format!("pipe{pipe}.{name}")
    }

    // -- multi-switch fabric (DESIGN.md §10) ----------------------------

    /// Name a metric scoped to one switch of a fabric (`sw<i>.<name>`),
    /// mirroring [`pipe_metric`]. Fabrics with more than one switch label
    /// per-switch counters this way; a single-switch testbed emits the
    /// unprefixed name so existing traces stay byte-identical.
    pub fn switch_metric(switch: u16, name: &str) -> String {
        format!("sw{switch}.{name}")
    }
}

// -- configuration ----------------------------------------------------------

#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Ring-buffer capacity for trace events; older events are dropped
    /// (and counted) once full.
    pub trace_capacity: usize,
    /// Master switch: when false, recording calls are no-ops (metrics
    /// and events alike) and exports describe an empty registry.
    pub enabled: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 1 << 16,
            enabled: true,
        }
    }
}

// -- names and handles ------------------------------------------------------

/// An interned name: a metric or trace-event name resolved once against a
/// registry's name table ([`Telemetry::intern`]). Handles are plain
/// copyable indices; recording through one does no allocation, no
/// formatting and no string comparison.
///
/// A handle is bound to the name table that issued it: the registry it
/// was resolved against accepts it; any other registry panics on it
/// ([`Telemetry::owns`] is the check to run before reusing a cached handle
/// against a new registry).
/// `NameId::default()` is a placeholder owned by no table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct NameId {
    /// Tag of the issuing name table (0 = none).
    table: u32,
    idx: u32,
}

/// Handle to a counter ([`Telemetry::register_counter`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CounterId(NameId);

/// Handle to a gauge ([`Telemetry::register_gauge`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct GaugeId(NameId);

/// Handle to a histogram ([`Telemetry::register_hist`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct HistId(NameId);

impl From<CounterId> for NameId {
    fn from(id: CounterId) -> NameId {
        id.0
    }
}

impl From<GaugeId> for NameId {
    fn from(id: GaugeId) -> NameId {
        id.0
    }
}

impl From<HistId> for NameId {
    fn from(id: HistId) -> NameId {
        id.0
    }
}

/// The three handles behind one driver op class: its `Scope::Driver` span
/// name, `driver.<op>_calls` and `driver.<op>_ns`
/// ([`Telemetry::register_driver_op`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DriverOpId {
    pub span: NameId,
    pub calls: CounterId,
    pub ns: HistId,
}

/// Name-table tags; 0 is reserved for "no table". The counter publishes
/// nothing but its own value.
static NEXT_TABLE_TAG: AtomicU32 = AtomicU32::new(1);

/// A registry's append-only string interner. Indices are assigned in
/// first-intern order, which depends on which name set-up happened to
/// resolve first — so nothing observable ever iterates in index order
/// (exports sort by name).
#[derive(Debug)]
struct NameTable {
    tag: u32,
    names: RefCell<Names>,
}

#[derive(Debug, Default)]
struct Names {
    by_idx: Vec<Arc<str>>,
    idx_of: HashMap<Arc<str>, u32>,
}

impl NameTable {
    fn new() -> NameTable {
        NameTable {
            tag: NEXT_TABLE_TAG.fetch_add(1, Ordering::Relaxed),
            names: RefCell::new(Names::default()),
        }
    }

    fn intern(&self, name: &str) -> u32 {
        let mut names = self.names.borrow_mut();
        if let Some(&idx) = names.idx_of.get(name) {
            return idx;
        }
        let idx = u32::try_from(names.by_idx.len()).expect("fewer than 2^32 telemetry names");
        let name: Arc<str> = Arc::from(name);
        names.by_idx.push(name.clone());
        names.idx_of.insert(name, idx);
        idx
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.names.borrow().idx_of.get(name).copied()
    }
}

// -- trace events -----------------------------------------------------------

/// Most `args` pairs one [`Telemetry::instant`] event can carry.
pub const MAX_EVENT_ARGS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Begin,
    End,
    Instant,
}

/// One ring record. Fixed-size and small: a span begin or end is all of
/// it, and the arg pairs of the rare instant that carries some live in the
/// side ring ([`Inner::args`]), `nargs` of them per event, in event order.
#[derive(Clone, Copy, Debug)]
struct Event {
    t: Nanos,
    /// Index into the registry's name table.
    name: u32,
    scope: Scope,
    phase: Phase,
    /// How many pairs of the side ring are this event's.
    nargs: u8,
}

// Two records to a 32-byte store; the default 2^16-event ring is 1 MiB.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// One `args` pair of an instant event, rendered into Chrome-trace `args`.
type Arg = (&'static str, i128);

// -- log-linear histogram ---------------------------------------------------

const SUB_BUCKETS: usize = 16;
const MAGNITUDES: usize = 64;

/// Log-linear histogram over `u64` values: 64 power-of-two magnitude
/// ranges, each split into 16 linear sub-buckets (~6% relative error on
/// quantile estimates). Deterministic and allocation-free after
/// construction.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u32>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; MAGNITUDES * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    let mag = 63 - v.leading_zeros() as usize;
    // Top SUB_BUCKETS.ilog2() bits below the leading one pick the
    // sub-bucket within the magnitude.
    let shift = mag.saturating_sub(4);
    let sub = ((v >> shift) as usize) & (SUB_BUCKETS - 1);
    mag * SUB_BUCKETS + sub
}

fn bucket_value(index: usize) -> u64 {
    let mag = index / SUB_BUCKETS;
    let sub = (index % SUB_BUCKETS) as u64;
    if mag < 4 {
        return (mag as u64 * SUB_BUCKETS as u64 + sub).min(SUB_BUCKETS as u64 - 1);
    }
    // Midpoint of the sub-bucket's range.
    let base = (1u64 << mag) | (sub << (mag - 4));
    base + (1u64 << (mag - 4)) / 2
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Quantile estimate (`q` in `[0, 1]`); exact at the recorded min
    /// and max, bucket-midpoint otherwise. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += u64::from(*c);
            if seen >= rank {
                return bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
        }
    }
}

/// Point-in-time summary of one histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u128,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    pub mean: f64,
}

/// Point-in-time copy of the whole registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    pub counters: BTreeMap<String, i128>,
    pub gauges: BTreeMap<String, i128>,
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Trace events currently held in the ring buffer.
    pub events_buffered: u64,
    /// Events evicted because the ring buffer was full.
    pub events_dropped: u64,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> i128 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> i128 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.get(name)
    }
}

// -- the shared handle ------------------------------------------------------

/// Trace ring plus value slots. Slots are indexed by name-table index;
/// `None` means "not touched since construction or [`Telemetry::reset`]"
/// and is invisible to every export — registering a name never changes a
/// snapshot.
#[derive(Debug, Default)]
struct Inner {
    trace_capacity: usize,
    /// The ring's storage: it grows to `trace_capacity` events, and from
    /// then on `head` is the oldest one, which the next push overwrites.
    /// Oldest to newest is `[head..]` then `[..head]`.
    events: Vec<Event>,
    head: usize,
    /// The arg pairs of the buffered events, oldest event's first: an event
    /// entering or leaving `events` takes its `nargs` pairs with it.
    args: VecDeque<Arg>,
    events_dropped: u64,
    counters: Vec<Option<i128>>,
    gauges: Vec<Option<i128>>,
    hists: Vec<Option<Histogram>>,
}

/// The slot for name `idx`, growing the vector on the first touch of a
/// name interned after this registry last sized it.
fn slot<T>(slots: &mut Vec<Option<T>>, idx: u32) -> &mut Option<T> {
    let i = idx as usize;
    if i >= slots.len() {
        slots.resize_with(i + 1, || None);
    }
    &mut slots[i]
}

impl Inner {
    /// Buffer `ev`, whose arg pairs `args` yields (`ev.nargs` of them),
    /// over the oldest event once the ring is full.
    fn push(&mut self, ev: Event, args: impl IntoIterator<Item = Arg>) {
        if self.events.len() < self.trace_capacity {
            self.events.push(ev);
        } else if self.trace_capacity == 0 {
            self.events_dropped += 1;
            return;
        } else {
            if self.events_dropped == 0 {
                // A full ring holds at most this many pairs. Reserved once,
                // on the first eviction, so that a ring that has wrapped
                // never allocates again; memory the pairs never reach is
                // never touched.
                let most = self.trace_capacity.saturating_mul(MAX_EVENT_ARGS);
                self.args.reserve(most - self.args.len());
            }
            // Only an event with arg pairs takes any out of the side ring,
            // and while that is empty no buffered event has one: the
            // evicted record is not even read, and the push is one store.
            if !self.args.is_empty() {
                let evicted = usize::from(self.events[self.head].nargs);
                self.args.drain(..evicted);
            }
            self.events[self.head] = ev;
            self.head += 1;
            if self.head == self.trace_capacity {
                self.head = 0;
            }
            self.events_dropped += 1;
        }
        if ev.nargs > 0 {
            self.args.extend(args);
        }
    }

    /// The buffered events, oldest first.
    fn events(&self) -> impl Iterator<Item = &Event> {
        let (newer, older) = self.events.split_at(self.head);
        older.iter().chain(newer)
    }

    fn add(&mut self, idx: u32, delta: i128) {
        *slot(&mut self.counters, idx).get_or_insert(0) += delta;
    }

    fn set(&mut self, idx: u32, value: i128) {
        *slot(&mut self.gauges, idx) = Some(value);
    }

    fn record(&mut self, idx: u32, value: u64) {
        slot(&mut self.hists, idx)
            .get_or_insert_with(Histogram::default)
            .record(value);
    }
}

/// The shared telemetry registry. Clone the `Arc` freely; all methods
/// take `&self`, and a record lands in the registry before the call
/// returns.
///
/// Every record call exists twice: by handle ([`add`](Telemetry::add),
/// [`set`](Telemetry::set), [`record`](Telemetry::record),
/// [`begin`](Telemetry::begin), [`end`](Telemetry::end),
/// [`mark`](Telemetry::mark)) and by name
/// ([`counter_add`](Telemetry::counter_add) …). The by-name form interns
/// the name and calls the by-handle form, so both write the same slots;
/// code that records per packet, per driver op or per iteration resolves
/// its handles once and records by handle.
#[derive(Debug)]
pub struct Telemetry {
    names: NameTable,
    inner: RefCell<Inner>,
    /// Fixed at construction and checked before anything else in every
    /// record call: a disabled handle costs one flag read.
    enabled: bool,
}

impl Telemetry {
    pub fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            names: NameTable::new(),
            inner: RefCell::new(Inner {
                trace_capacity: config.trace_capacity,
                ..Inner::default()
            }),
            enabled: config.enabled,
        }
    }

    /// The registry's slots and ring, for one record. Nothing a record
    /// does calls back out, so no borrow is ever held across another.
    fn inner(&self) -> RefMut<'_, Inner> {
        self.inner.borrow_mut()
    }

    /// A handle with `config`, ready to share.
    // The registry is single-threaded state: a `RefCell`, so `Telemetry`
    // is neither `Send` nor `Sync` and the compiler refuses to hand the
    // `Arc` to another thread. It stays an `Arc` only because code outside
    // this workspace's crates names `Arc<Telemetry>`; ROADMAP item 1(a)
    // makes it an `Rc` and drops this allow.
    #[allow(clippy::arc_with_non_send_sync)]
    pub fn shared_with(config: TelemetryConfig) -> Arc<Telemetry> {
        Arc::new(Telemetry::new(config))
    }

    /// An enabled handle with default config, ready to share.
    pub fn shared() -> Arc<Telemetry> {
        Telemetry::shared_with(TelemetryConfig::default())
    }

    /// A handle that records nothing (the default for components whose
    /// caller did not ask for telemetry).
    pub fn disabled() -> Arc<Telemetry> {
        Telemetry::shared_with(TelemetryConfig {
            enabled: false,
            trace_capacity: 0,
        })
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    // -- name resolution ---------------------------------------------------

    /// Resolve `name` against this registry's name table, adding it if
    /// new. Registration alone is invisible to every export; a disabled
    /// handle resolves nothing and returns the placeholder.
    pub fn intern(&self, name: &str) -> NameId {
        if !self.enabled {
            return NameId::default();
        }
        NameId {
            table: self.names.tag,
            idx: self.names.intern(name),
        }
    }

    pub fn register_counter(&self, name: &str) -> CounterId {
        CounterId(self.intern(name))
    }

    pub fn register_gauge(&self, name: &str) -> GaugeId {
        GaugeId(self.intern(name))
    }

    pub fn register_hist(&self, name: &str) -> HistId {
        HistId(self.intern(name))
    }

    /// Handles for driver op class `op`: its span name plus
    /// `driver.<op>_calls` / `driver.<op>_ns`.
    pub fn register_driver_op(&self, op: &str) -> DriverOpId {
        if !self.enabled {
            return DriverOpId::default();
        }
        let prefix = scopes::DRIVER_OP_PREFIX;
        DriverOpId {
            span: self.intern(op),
            calls: self.register_counter(&format!("{prefix}{op}_calls")),
            ns: self.register_hist(&format!("{prefix}{op}_ns")),
        }
    }

    /// Whether `id` was issued by this registry's name table, i.e. whether
    /// a cached handle may be used here or must be re-resolved.
    pub fn owns(&self, id: impl Into<NameId>) -> bool {
        id.into().table == self.names.tag
    }

    /// The slot index behind a handle issued by this registry's table.
    fn index(&self, id: NameId) -> u32 {
        assert!(
            id.table == self.names.tag,
            "Telemetry: handle {id:?} was issued by another name table (this one is {}); \
             re-resolve cached handles when the registry changes",
            self.names.tag
        );
        id.idx
    }

    /// Push one trace event carrying `args` onto the ring.
    fn push(&self, scope: Scope, phase: Phase, name: NameId, t: Nanos, args: &[Arg]) {
        if self.enabled {
            assert!(
                args.len() <= MAX_EVENT_ARGS,
                "Telemetry: an instant event carries at most {MAX_EVENT_ARGS} args, got {}",
                args.len()
            );
            let ev = Event {
                t,
                name: self.index(name),
                scope,
                phase,
                nargs: args.len() as u8,
            };
            self.inner().push(ev, args.iter().copied());
        }
    }

    // -- tracer ------------------------------------------------------------

    pub fn begin(&self, scope: Scope, name: NameId, t: Nanos) {
        self.push(scope, Phase::Begin, name, t, &[]);
    }

    pub fn end(&self, scope: Scope, name: NameId, t: Nanos) {
        self.push(scope, Phase::End, name, t, &[]);
    }

    /// A point event with at most [`MAX_EVENT_ARGS`] numeric args.
    pub fn mark(&self, scope: Scope, name: NameId, t: Nanos, args: &[(&'static str, i128)]) {
        self.push(scope, Phase::Instant, name, t, args);
    }

    pub fn span_begin(&self, scope: Scope, name: &str, t: Nanos) {
        self.begin(scope, self.intern(name), t);
    }

    pub fn span_end(&self, scope: Scope, name: &str, t: Nanos) {
        self.end(scope, self.intern(name), t);
    }

    /// By-name form of [`mark`](Telemetry::mark).
    pub fn instant(&self, scope: Scope, name: &str, t: Nanos, args: &[(&'static str, i128)]) {
        self.mark(scope, self.intern(name), t, args);
    }

    // -- metrics registry --------------------------------------------------

    pub fn add(&self, id: CounterId, delta: i128) {
        if self.enabled {
            self.inner().add(self.index(id.0), delta);
        }
    }

    pub fn set(&self, id: GaugeId, value: i128) {
        if self.enabled {
            self.inner().set(self.index(id.0), value);
        }
    }

    pub fn record(&self, id: HistId, value: u64) {
        if self.enabled {
            self.inner().record(self.index(id.0), value);
        }
    }

    /// Record one driver op of class `op`: bumps `driver.<op>_calls` and
    /// feeds `driver.<op>_ns`. This is the per-op accounting behind the
    /// reaction-loop profile (batched register reads vs table writes
    /// vs scalar updates all show up as separate histograms).
    pub fn record_driver_op(&self, op: &DriverOpId, cost_ns: Nanos) {
        if self.enabled {
            let mut inner = self.inner();
            inner.add(self.index(op.calls.0), 1);
            inner.record(self.index(op.ns.0), cost_ns);
        }
    }

    pub fn counter_add(&self, name: &str, delta: i128) {
        self.add(self.register_counter(name), delta);
    }

    pub fn gauge_set(&self, name: &str, value: i128) {
        self.set(self.register_gauge(name), value);
    }

    pub fn hist_record(&self, name: &str, value: u64) {
        self.record(self.register_hist(name), value);
    }

    /// By-name form of [`record_driver_op`](Telemetry::record_driver_op).
    pub fn driver_op(&self, op: &str, cost_ns: Nanos) {
        self.record_driver_op(&self.register_driver_op(op), cost_ns);
    }

    pub fn counter(&self, name: &str) -> i128 {
        let Some(idx) = self.names.lookup(name) else {
            return 0;
        };
        let inner = self.inner.borrow();
        inner
            .counters
            .get(idx as usize)
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> i128 {
        let Some(idx) = self.names.lookup(name) else {
            return 0;
        };
        let inner = self.inner.borrow();
        inner
            .gauges
            .get(idx as usize)
            .copied()
            .flatten()
            .unwrap_or(0)
    }

    pub fn snapshot(&self) -> Snapshot {
        fn touched<T, U>(
            names: &Names,
            slots: &[Option<T>],
            value: impl Fn(&T) -> U,
        ) -> BTreeMap<String, U> {
            slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| Some((names.by_idx[i].to_string(), value(s.as_ref()?))))
                .collect()
        }
        let inner = self.inner.borrow();
        let names = self.names.names.borrow();
        Snapshot {
            counters: touched(&names, &inner.counters, |v| *v),
            gauges: touched(&names, &inner.gauges, |v| *v),
            hists: touched(&names, &inner.hists, Histogram::snapshot),
            events_buffered: inner.events.len() as u64,
            events_dropped: inner.events_dropped,
        }
    }

    /// Drop all recorded events and metrics. Config, the name table and
    /// every handle issued so far are kept.
    pub fn reset(&self) {
        let mut inner = self.inner();
        inner.events.clear();
        inner.head = 0;
        inner.args.clear();
        inner.events_dropped = 0;
        inner.counters.clear();
        inner.gauges.clear();
        inner.hists.clear();
    }

    // -- exporters ---------------------------------------------------------

    /// Chrome `trace_event` JSON (the "JSON Array Format" wrapped in an
    /// object), loadable in Perfetto / `chrome://tracing`. Timestamps
    /// are virtual-clock microseconds with nanosecond fractions;
    /// output is byte-deterministic for a given event sequence.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.inner.borrow();
        let names = self.names.names.borrow();
        let mut out = String::new();
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        // Thread-name metadata so scopes render with readable labels.
        for scope in Scope::ALL {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                scope.tid(),
                scope.name()
            );
        }
        let mut args = inner.args.iter();
        for ev in inner.events() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let ph = match ev.phase {
                Phase::Begin => "B",
                Phase::End => "E",
                Phase::Instant => "i",
            };
            let _ = write!(
                out,
                "{{\"ph\":\"{}\",\"pid\":0,\"tid\":{},\"ts\":{}.{:03},\"name\":\"{}\"",
                ph,
                ev.scope.tid(),
                ev.t / 1_000,
                ev.t % 1_000,
                escape_json(&names.by_idx[ev.name as usize]),
            );
            if ev.phase == Phase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            if ev.nargs > 0 {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in args.by_ref().take(usize::from(ev.nargs)).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\":{}", escape_json(k), v);
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }

    /// Flat JSON snapshot of the metrics registry: counters, gauges,
    /// and histogram summaries. Byte-deterministic (sorted keys).
    pub fn snapshot_json(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &snap.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape_json(k), v);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &snap.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape_json(k), v);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &snap.hists {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                escape_json(k),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            );
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        let _ = write!(
            out,
            "  \"events_buffered\": {},\n  \"events_dropped\": {}\n}}\n",
            snap.events_buffered, snap.events_dropped
        );
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Log-linear buckets: ~6% relative error tolerated.
        assert!((450..=550).contains(&s.p50), "p50 = {}", s.p50);
        assert!((900..=1000).contains(&s.p95), "p95 = {}", s.p95);
        assert!((940..=1000).contains(&s.p99), "p99 = {}", s.p99);
    }

    #[test]
    fn histogram_handles_edge_values() {
        let mut h = Histogram::default();
        assert_eq!(h.snapshot().p50, 0);
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.count, 2);
        assert!(s.p99 >= s.p50, "quantiles must be monotone");
    }

    #[test]
    fn single_value_histogram_is_exact_at_all_quantiles() {
        let mut h = Histogram::default();
        h.record(42);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 42);
        }
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let tel = Telemetry::new(TelemetryConfig {
            trace_capacity: 2,
            enabled: true,
        });
        tel.instant(Scope::Agent, "a", 1, &[]);
        tel.instant(Scope::Agent, "b", 2, &[]);
        tel.instant(Scope::Agent, "c", 3, &[]);
        let snap = tel.snapshot();
        assert_eq!(snap.events_buffered, 2);
        assert_eq!(snap.events_dropped, 1);
        let trace = tel.chrome_trace_json();
        assert!(!trace.contains("\"name\":\"a\""));
        assert!(trace.contains("\"name\":\"c\""));
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        tel.counter_add("x", 5);
        tel.hist_record("h", 9);
        tel.span_begin(Scope::Agent, "s", 0);
        let snap = tel.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.hists.is_empty());
        assert_eq!(snap.events_buffered, 0);
    }

    /// A disabled registry resolves names to placeholder handles and
    /// records nothing through them.
    #[test]
    fn writer_of_disabled_handle_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.mark(Scope::Switch, tel.intern("a"), 10, &[]);
        tel.add(tel.register_counter("c"), 1);
        let snap = tel.snapshot();
        assert_eq!(tel.counter("c"), 0);
        assert_eq!(snap.events_buffered, 0);
    }

    /// Marks by handle land in the ring as named records do: the ring's
    /// capacity decides what survives.
    #[test]
    fn merge_respects_destination_ring_capacity() {
        let tel = Telemetry::new(TelemetryConfig {
            enabled: true,
            trace_capacity: 2,
        });
        let e = tel.intern("e");
        for t in 0..5 {
            tel.mark(Scope::Switch, e, t, &[]);
        }
        let snap = tel.snapshot();
        assert_eq!(snap.events_buffered, 2);
        assert_eq!(snap.events_dropped, 3);
        // Ring keeps the most recent events, oldest first.
        let trace = tel.chrome_trace_json();
        assert!(trace.find("\"ts\":0.003").unwrap() < trace.find("\"ts\":0.004").unwrap());
        assert!(!trace.contains("\"ts\":0.002,"));
    }

    #[test]
    fn exports_are_deterministic() {
        let run = || {
            let tel = Telemetry::new(TelemetryConfig::default());
            tel.span_begin(Scope::Agent, scopes::SPAN_MEASURE, 1_500);
            tel.span_end(Scope::Agent, scopes::SPAN_MEASURE, 2_750);
            tel.driver_op("table_add", 600);
            tel.driver_op("table_add", 800);
            tel.counter_add(scopes::CTR_ITERATIONS, 1);
            tel.gauge_set("tm.q0_depth", 12);
            (tel.chrome_trace_json(), tel.snapshot_json())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chrome_trace_has_span_pairs_and_metadata() {
        let tel = Telemetry::new(TelemetryConfig::default());
        tel.span_begin(Scope::Driver, "register_read", 1_000);
        tel.span_end(Scope::Driver, "register_read", 3_500);
        tel.instant(Scope::NetSim, "drop", 2_000, &[("port", 3)]);
        let trace = tel.chrome_trace_json();
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"E\""));
        assert!(trace.contains("\"ts\":1.000"));
        assert!(trace.contains("\"ts\":3.500"));
        assert!(trace.contains("\"args\":{\"port\":3}"));
        assert!(trace.contains("\"thread_name\""));
    }

    #[test]
    fn snapshot_json_contains_percentiles() {
        let tel = Telemetry::new(TelemetryConfig::default());
        for i in 0..100 {
            tel.driver_op("register_read", 1_000 + i * 10);
        }
        let json = tel.snapshot_json();
        assert!(json.contains("\"driver.register_read_ns\""));
        assert!(json.contains("\"p99\""));
        assert_eq!(tel.counter("driver.register_read_calls"), 100);
    }

    /// A counter delta and a gauge value beyond `i64` land exactly, in
    /// their place among narrow ones.
    #[test]
    fn wide_counter_deltas_and_gauge_values_land_exactly() {
        let tel = Telemetry::shared();
        let (c, g) = (tel.register_counter("c"), tel.register_gauge("g"));
        tel.set(g, 1);
        tel.set(g, i128::MAX);
        assert_eq!(tel.gauge("g"), i128::MAX);
        tel.set(g, i128::from(i64::MIN) - 1);
        assert_eq!(tel.gauge("g"), i128::from(i64::MIN) - 1);
        tel.add(c, i128::from(i64::MAX));
        tel.add(c, i128::from(i64::MAX) + 1);
        tel.add(c, 1);
        let sum = 2 * i128::from(i64::MAX) + 2;
        assert_eq!(tel.counter("c"), sum);
        assert!(tel.snapshot_json().contains(&format!("\"c\": {sum}")));
    }
}
