//! Allocation contract of the record paths (DESIGN.md §6), enforced with
//! a counting global allocator: a disabled handle allocates nothing on any
//! call, and an enabled one allocates nothing through handles once its
//! ring is full and its slots have been touched.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running on another thread would bleed into the measured windows.

use mantis_telemetry::{Scope, Telemetry, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; the counter is the only
// addition and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn record_paths_do_not_allocate() {
    // -- a disabled handle: every call, by name or by handle, is free ----
    let off = Telemetry::disabled();
    let n = allocations_during(|| {
        for t in 0..100u64 {
            off.counter_add("switch.rx", 1);
            off.gauge_set("tm.q0_depth_bytes", 64);
            off.hist_record("agent.iteration_ns", t);
            off.span_begin(Scope::Agent, "iteration", t);
            off.span_end(Scope::Agent, "iteration", t + 1);
            off.instant(Scope::Switch, "drop", t, &[("port", 1), ("pipe", 0)]);
            off.driver_op("table_add", 600);
            let (c, g, h) = (
                off.register_counter("switch.tx"),
                off.register_gauge("tm.q1_depth_bytes"),
                off.register_hist("agent.react_ns"),
            );
            let (name, op) = (
                off.intern("egress_pass"),
                off.register_driver_op("init_flip"),
            );
            off.add(c, 1);
            off.set(g, 1);
            off.record(h, t);
            off.begin(Scope::Switch, name, t);
            off.end(Scope::Switch, name, t + 1);
            off.mark(Scope::Switch, name, t, &[("port", 1)]);
            off.record_driver_op(&op, 600);
        }
    });
    assert_eq!(n, 0, "a disabled handle allocated {n} times");
    assert_eq!(off.snapshot().events_dropped, 0);

    // -- an enabled handle: handles are free once warm --------------------
    let on = Telemetry::new(TelemetryConfig {
        trace_capacity: 64,
        enabled: true,
    });
    let (c, g, h) = (
        on.register_counter("switch.rx"),
        on.register_gauge("tm.q0_depth_bytes"),
        on.register_hist("agent.iteration_ns"),
    );
    let (name, op) = (on.intern("egress_pass"), on.register_driver_op("table_add"));
    let round = |t: u64| {
        on.add(c, 1);
        on.set(g, t as i128);
        on.record(h, t);
        on.begin(Scope::Switch, name, t);
        on.end(Scope::Switch, name, t + 1);
        on.mark(
            Scope::TrafficManager,
            name,
            t,
            &[("port", 1), ("depth_bytes", 9), ("pipe", 0)],
        );
        on.record_driver_op(&op, t);
        // A switch's burst for one served packet.
        on.add(c, 1);
        on.begin(Scope::Switch, name, t);
        on.end(Scope::Switch, name, t + 1);
        on.mark(Scope::Switch, name, t, &[("port", 1), ("pipe", 0)]);
    };
    // Warm-up: the ring fills and wraps, every slot is touched.
    (0..64).for_each(round);
    let n = allocations_during(|| (64..1_064).for_each(round));
    assert_eq!(n, 0, "warm by-handle recording allocated {n} times");
    let snap = on.snapshot();
    assert_eq!(snap.events_buffered, 64);
    assert_eq!(snap.counter("switch.rx"), 2 * 1_064);
}
