//! Differential property test: the by-handle record calls and the by-name
//! ones are one implementation seen through two doors.
//!
//! A random sequence of registrations, records, spans, instants (0–3
//! args), bursts of records made back to back (one unit of work's), and
//! resets is applied twice — once through the by-name API, once through
//! pre-resolved handles — to registries of the same (small, so the ring
//! evicts, also inside a burst) capacity. Both exports must come out
//! byte-identical. Along the way this pins down that a name registered but
//! never touched appears nowhere, that handles stay valid across `reset`,
//! and that counter deltas and gauge values beyond `i64` land exactly.
//!
//! The same steps also run against a ring that never evicts: what a small
//! ring holds must be the tail of that, arg pairs included — the side ring
//! the pairs live in leaves in step with the events they belong to.

use mantis_telemetry::{
    CounterId, DriverOpId, GaugeId, HistId, NameId, Scope, Telemetry, TelemetryConfig,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Metric / event names, including ones the JSON exporters must escape.
const NAMES: [&str; 10] = [
    "switch.rx",
    "switch.tx",
    "sw3.switch.rx",
    "tm.q7_depth_bytes",
    "egress_pass",
    "iteration",
    "agent.iteration_ns",
    "quo\"te",
    "back\\slash\nnewline",
    "",
];
const OPS: [&str; 3] = ["table_add", "register_read", "init_flip"];
const ARG_KEYS: [&str; 3] = ["port", "depth_bytes", "pipe"];
const SCOPES: [Scope; 6] = [
    Scope::Agent,
    Scope::Driver,
    Scope::Switch,
    Scope::TrafficManager,
    Scope::NetSim,
    Scope::Bench,
];

/// One record call, valid on any registry.
#[derive(Clone, Debug)]
enum Rec {
    Add(usize, i128),
    Set(usize, i128),
    Hist(usize, u64),
    Span(usize, usize, u64, u64),
    Instant(usize, usize, u64, Vec<i128>),
    DriverOp(usize, u64),
}

#[derive(Clone, Debug)]
enum Step {
    Rec(Rec),
    /// Resolve handles for a name without recording under it.
    Register(usize),
    /// One unit of work's records, made back to back.
    Burst(Vec<Rec>),
    Reset,
}

fn rec_strategy() -> impl Strategy<Value = Rec> {
    let name = 0..NAMES.len();
    prop_oneof![
        (name.clone(), any::<i64>()).prop_map(|(n, d)| Rec::Add(n, i128::from(d) << 40)),
        (name.clone(), any::<i128>()).prop_map(|(n, v)| Rec::Set(n, v)),
        (name.clone(), any::<u64>()).prop_map(|(n, v)| Rec::Hist(n, v >> (v % 64))),
        (name.clone(), 0..SCOPES.len(), 0u64..5_000_000, 0u64..10_000)
            .prop_map(|(n, s, t, dt)| Rec::Span(n, s, t, dt)),
        (
            name,
            0..SCOPES.len(),
            0u64..5_000_000,
            vec(any::<i128>(), 0..4)
        )
            .prop_map(|(n, s, t, args)| Rec::Instant(n, s, t, args)),
        (0..OPS.len(), 0u64..100_000).prop_map(|(o, ns)| Rec::DriverOp(o, ns)),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        rec_strategy().prop_map(Step::Rec),
        rec_strategy().prop_map(Step::Rec),
        rec_strategy().prop_map(Step::Rec),
        (0..NAMES.len()).prop_map(Step::Register),
        vec(rec_strategy(), 0..12).prop_map(Step::Burst),
        vec(rec_strategy(), 0..12).prop_map(Step::Burst),
        Just(Step::Reset),
    ]
}

fn args_of(values: &[i128]) -> Vec<(&'static str, i128)> {
    ARG_KEYS
        .iter()
        .copied()
        .zip(values.iter().copied())
        .collect()
}

fn record_by_name(tel: &Telemetry, rec: &Rec) {
    match rec {
        Rec::Add(n, d) => tel.counter_add(NAMES[*n], *d),
        Rec::Set(n, v) => tel.gauge_set(NAMES[*n], *v),
        Rec::Hist(n, v) => tel.hist_record(NAMES[*n], *v),
        Rec::Span(n, s, t, dt) => {
            tel.span_begin(SCOPES[*s], NAMES[*n], *t);
            tel.span_end(SCOPES[*s], NAMES[*n], t + dt);
        }
        Rec::Instant(n, s, t, values) => tel.instant(SCOPES[*s], NAMES[*n], *t, &args_of(values)),
        Rec::DriverOp(o, ns) => tel.driver_op(OPS[*o], *ns),
    }
}

/// Every handle a caller could cache, resolved against one name table.
struct Handles {
    names: Vec<NameId>,
    counters: Vec<CounterId>,
    gauges: Vec<GaugeId>,
    hists: Vec<HistId>,
    ops: Vec<DriverOpId>,
}

impl Handles {
    fn resolve(tel: &Telemetry) -> Handles {
        Handles {
            names: NAMES.iter().map(|n| tel.intern(n)).collect(),
            counters: NAMES.iter().map(|n| tel.register_counter(n)).collect(),
            gauges: NAMES.iter().map(|n| tel.register_gauge(n)).collect(),
            hists: NAMES.iter().map(|n| tel.register_hist(n)).collect(),
            ops: OPS.iter().map(|o| tel.register_driver_op(o)).collect(),
        }
    }
}

fn record_by_handle(tel: &Telemetry, h: &Handles, rec: &Rec) {
    match rec {
        Rec::Add(n, d) => tel.add(h.counters[*n], *d),
        Rec::Set(n, v) => tel.set(h.gauges[*n], *v),
        Rec::Hist(n, v) => tel.record(h.hists[*n], *v),
        Rec::Span(n, s, t, dt) => {
            tel.begin(SCOPES[*s], h.names[*n], *t);
            tel.end(SCOPES[*s], h.names[*n], t + dt);
        }
        Rec::Instant(n, s, t, values) => tel.mark(SCOPES[*s], h.names[*n], *t, &args_of(values)),
        Rec::DriverOp(o, ns) => tel.record_driver_op(&h.ops[*o], *ns),
    }
}

fn run_by_name(capacity: usize, steps: &[Step]) -> (String, String) {
    let tel = Telemetry::new(TelemetryConfig {
        trace_capacity: capacity,
        enabled: true,
    });
    for step in steps {
        match step {
            Step::Rec(rec) => record_by_name(&tel, rec),
            // Registration has no by-name counterpart: it must be invisible.
            Step::Register(_) => {}
            Step::Burst(recs) => recs.iter().for_each(|r| record_by_name(&tel, r)),
            Step::Reset => tel.reset(),
        }
    }
    (tel.snapshot_json(), tel.chrome_trace_json())
}

fn run_by_handle(capacity: usize, steps: &[Step]) -> (String, String) {
    let tel = Telemetry::new(TelemetryConfig {
        trace_capacity: capacity,
        enabled: true,
    });
    // Resolved once, before anything is recorded; still valid after every
    // reset.
    let handles = Handles::resolve(&tel);
    for step in steps {
        match step {
            Step::Rec(rec) => record_by_handle(&tel, &handles, rec),
            Step::Register(n) => {
                assert_eq!(tel.intern(NAMES[*n]), handles.names[*n]);
                assert!(tel.owns(tel.register_gauge(NAMES[*n])));
            }
            Step::Burst(recs) => recs
                .iter()
                .for_each(|r| record_by_handle(&tel, &handles, r)),
            Step::Reset => tel.reset(),
        }
    }
    (tel.snapshot_json(), tel.chrome_trace_json())
}

/// The event records of a Chrome trace, one per line, metadata left out.
fn event_lines(trace: &str) -> Vec<&str> {
    let lines = trace.lines().map(|l| l.trim_end_matches(','));
    lines
        .filter(|l| l.starts_with("{\"ph\":") && !l.starts_with("{\"ph\":\"M\""))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn handles_and_names_export_identical_bytes(
        capacity in prop_oneof![Just(0usize), Just(3usize), Just(16usize), Just(1usize << 16)],
        steps in vec(step_strategy(), 0..60),
    ) {
        let (snap_n, trace_n) = run_by_name(capacity, &steps);
        let (snap_h, trace_h) = run_by_handle(capacity, &steps);
        prop_assert_eq!(snap_n, snap_h);
        prop_assert_eq!(&trace_n, &trace_h);
        let (_, unbounded) = run_by_handle(usize::MAX, &steps);
        let all = event_lines(&unbounded);
        let tail = &all[all.len().saturating_sub(capacity)..];
        prop_assert_eq!(event_lines(&trace_h), tail);
    }
}

#[test]
fn registered_but_untouched_names_never_reach_an_export() {
    let tel = Telemetry::new(TelemetryConfig::default());
    let empty = (tel.snapshot_json(), tel.chrome_trace_json());
    let handles = Handles::resolve(&tel);
    assert_eq!((tel.snapshot_json(), tel.chrome_trace_json()), empty);
    // Touch one counter: only it appears.
    tel.add(handles.counters[0], 1);
    let snap = tel.snapshot();
    assert_eq!(snap.counters.len(), 1);
    assert_eq!(snap.counter(NAMES[0]), 1);
    assert!(snap.gauges.is_empty() && snap.hists.is_empty());
    // After a reset the slot is untouched again, and the handle still works.
    tel.reset();
    assert_eq!((tel.snapshot_json(), tel.chrome_trace_json()), empty);
    tel.add(handles.counters[0], 2);
    assert_eq!(tel.counter(NAMES[0]), 2);
}

#[test]
#[should_panic(expected = "issued by another name table")]
fn a_handle_from_another_registry_is_refused() {
    let a = Telemetry::new(TelemetryConfig::default());
    let b = Telemetry::new(TelemetryConfig::default());
    let id = a.register_counter("switch.rx");
    assert!(a.owns(id) && !b.owns(id));
    b.add(id, 1);
}

#[test]
#[should_panic(expected = "at most 3 args")]
fn a_fourth_instant_arg_is_refused() {
    let tel = Telemetry::new(TelemetryConfig::default());
    tel.instant(
        Scope::Switch,
        "drop",
        0,
        &[("a", 1), ("b", 2), ("c", 3), ("d", 4)],
    );
}
