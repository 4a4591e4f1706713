//! The dialogue loop's steady state touches only memory it already owns,
//! on both drivers (DESIGN.md, "The iteration kernel").
//!
//! A counting global allocator wraps the system one (the twin of
//! `zero_alloc_steady_state.rs`, which proves the same of the packet
//! path). Each of the four use-case programs runs its interpreted
//! reaction, and a churn program a native reaction that rewrites eight
//! malleable-table entries and a malleable value every iteration, on one
//! pipe — once against the in-process driver and once through the wire
//! protocol over a 10 µs-RTT channel with batching on. After a warm-up —
//! buffers reach their high-water marks, the telemetry ring fills, driver
//! memos go warm, the plane's dedup ring wraps — the allocations of every
//! `dialogue_iteration()` are counted.
//!
//! The agent's own bookkeeping contributes none: staging, the measurement
//! snapshots and register caches, the transaction's checkpoints and undo
//! log, the table journals behind them and the iteration report all live
//! in buffers that persist. Neither does the driver vocabulary any more: an
//! op is submitted by reference and built around a vector its stager keeps
//! (the init-table image, the staged op's own data), a read fills a vector
//! the snapshot keeps. Nor the wire: request and response frames are
//! encoded into and decoded out of buffers the channel, the plane and the
//! remote driver's deferred batch own, and the plane's copy of a response
//! for dedup overwrites the oldest one's bytes. What is left, the same on
//! both drivers:
//!
//! * every physical table write — `SetDefaultOn` (the measurement flip,
//!   the commit flip), `TableMod` — makes one allocation: the
//!   `Arc<[Value]>` the table keeps the action data in, shared with the
//!   undo journal of an open checkpoint;
//! * a reaction that stages `table_mod(.., vec![..])` allocates that
//!   vector itself.
//!
//! So a quiescent iteration — one measurement flip, the polls, nothing
//! staged — makes **1** allocation for each of DoS / ECMP / failover / RL
//! (was 6 / 5 / 5 / 8 locally and 98 / 65 / 67 / 123 remotely), and an
//! 8-mod churn iteration `8 (reaction) + 16 mods + 2 flips = 26` (was 63
//! locally and 302 remotely).

use mantis::apps::programs::{DOS_P4R, ECMP_P4R, FAILOVER_P4R, RL_P4R};
use mantis::p4_ast::Value;
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::rmt_sim::PacketDesc;
use mantis::{ChannelConfig, CostModel, DriverMode, ReactionCtx, SwitchConfig, Testbed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is passed through unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// The allocation counter is process-wide: the programs take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const WARMUP: usize = 3_000;
const MEASURED: usize = 200;

/// Both drivers: in-process, and over the 10 µs-RTT wire with batching on.
fn modes() -> [(&'static str, DriverMode); 2] {
    let wire = ChannelConfig::with_rtt(10_000);
    [
        ("local", DriverMode::Local),
        ("remote", DriverMode::Remote(wire)),
    ]
}

fn testbed(src: &str, mode: DriverMode) -> Testbed {
    let config = SwitchConfig {
        num_pipes: 1,
        ..SwitchConfig::default()
    };
    Testbed::with_config_mode(src, config, CostModel::default(), mode).expect("program compiles")
}

fn eth_ipv4(port: u16, src: u128, dst: u128, payload: u32) -> PacketDesc {
    PacketDesc::new(port)
        .field("ethernet", "ether_type", 0x0800)
        .field("ipv4", "src_addr", src)
        .field("ipv4", "dst_addr", dst)
        .field("ipv4", "protocol", 17)
        .payload(payload)
}

/// Run `WARMUP` iterations, then count the allocations of each of
/// `MEASURED` more; `traffic(i)` is injected (uncounted) before iteration
/// `i`. Returns `(allocations, update_ns + sync_ns)` per measured
/// iteration.
fn profile(tb: &Testbed, traffic: impl Fn(usize) -> Vec<PacketDesc>) -> Vec<(u64, u64)> {
    let switch = tb.sim.switch().clone();
    let mut out = Vec::with_capacity(MEASURED);
    for i in 0..WARMUP + MEASURED {
        {
            let mut sw = switch.borrow_mut();
            for pkt in traffic(i) {
                sw.inject(&pkt);
            }
            sw.pump();
            sw.take_transmitted();
        }
        let mut agent = tb.agent.borrow_mut();
        let before = ALLOCS.load(Ordering::Relaxed);
        let report = agent.dialogue_iteration();
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        let report = report.expect("iteration commits");
        assert!(report.reaction_failures.is_empty(), "iteration {i}");
        if i >= WARMUP {
            out.push((allocs, report.update_ns + report.sync_ns));
        }
    }
    out
}

#[test]
fn a_quiescent_iteration_allocates_only_the_driver_payloads() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Steady background traffic: the measured registers keep moving, the
    // bodies see nothing to react to.
    type Traffic = fn(usize) -> Vec<PacketDesc>;
    let programs: [(&str, &str, Traffic); 4] = [
        ("dos", DOS_P4R, |i| {
            let host = (i % 64) as u128;
            vec![eth_ipv4(
                (i % 4) as u16,
                0x0a00_0001 + host,
                0x0a00_1000,
                100,
            )]
        }),
        ("ecmp", ECMP_P4R, |i| {
            let flow = i as u128 * 0x9e37 + 1;
            vec![eth_ipv4(0, flow, flow.rotate_left(7), 200)
                .field("l4", "sport", 1024 + flow % 50_000)
                .field("l4", "dport", 1 + flow % 1_000)]
        }),
        ("failover", FAILOVER_P4R, |_| {
            let hb = |p: u16| {
                PacketDesc::new(p)
                    .field("ethernet", "ether_type", 0x88b5)
                    .field("hb", "seq", 0)
                    .field("hb", "origin", u128::from(p))
                    .payload(0)
            };
            (4..8).flat_map(|p| (0..10).map(move |_| hb(p))).collect()
        }),
        ("rl", RL_P4R, |_| {
            vec![eth_ipv4(0, 0x0a00_0101, 0x0a00_0001, 100)]
        }),
    ];
    // The measurement flip's table-held `Arc`.
    let ceiling = 1;
    for ((program, src, traffic), (driver, mode)) in
        programs.iter().flat_map(|p| modes().map(|m| (*p, m)))
    {
        let name = format!("{program} ({driver})");
        let tb = testbed(src, mode);
        if program == "rl" {
            let mut sw = tb.sim.switch().borrow_mut();
            sw.bind_queue_depth_register("qdepths").expect("qdepths");
        }
        tb.agent
            .borrow_mut()
            .register_all_interpreted()
            .expect("reaction registers");
        let quiescent: Vec<u64> = profile(&tb, traffic)
            .into_iter()
            .filter(|(_, apply_ns)| *apply_ns == 0)
            .map(|(allocs, _)| allocs)
            .collect();
        assert!(
            quiescent.len() >= MEASURED / 2,
            "{name}: only {} of {MEASURED} iterations were quiescent",
            quiescent.len()
        );
        let worst = *quiescent.iter().max().expect("non-empty");
        assert!(
            worst <= ceiling,
            "{name}: a quiescent iteration made {worst} allocations, its table write \
             accounts for {ceiling}: {quiescent:?}"
        );
    }
}

const CHURN_P4R: &str = r#"
header_type h_t { fields { a : 32; b : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action fwd(port) { modify_field(intr.egress_spec, port); }
action nop() { no_op(); }
malleable table acl {
    reads { h.b : exact; }
    actions { fwd; nop; }
    size : 256;
}
table t { actions { nop; } default_action : nop(); }
reaction churn(ing h.a) { ${knob} = ${knob}; }
control ingress { apply(acl); apply(t); }
"#;

const CHURN_MODS: usize = 8;

#[test]
fn an_eight_mod_iteration_allocates_only_the_driver_payloads() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for (driver, mode) in modes() {
        churn(driver, mode);
    }
}

fn churn(driver: &str, mode: DriverMode) {
    let tb = testbed(CHURN_P4R, mode);
    let mut handles = Vec::with_capacity(CHURN_MODS);
    {
        let mut agent = tb.agent.borrow_mut();
        agent
            .user_init(|ctx| {
                for k in 0..CHURN_MODS as u128 {
                    let key = vec![LogicalKey::Exact(Value::new(k + 1, 32))];
                    handles.push(ctx.table_add(
                        "acl",
                        key,
                        0,
                        "fwd",
                        vec![Value::new(k % 8, 9)],
                    )?);
                }
                Ok(())
            })
            .expect("entries install");
        let mut i = 0u64;
        agent
            .register_native(
                "churn",
                Box::new(move |ctx: &mut ReactionCtx<'_>| {
                    i += 1;
                    for (k, h) in handles.iter().enumerate() {
                        let port = Value::new(u128::from(i + k as u64) % 8, 9);
                        ctx.table_mod("acl", *h, "fwd", vec![port])?;
                    }
                    ctx.set_mbl("knob", i as i128)
                }),
            )
            .expect("reaction registers");
    }
    let traffic = |i: usize| {
        vec![PacketDesc::new(0)
            .field("h", "a", 1 + i as u128)
            .field("h", "b", 1 + (i % CHURN_MODS) as u128)
            .payload(64)]
    };
    let runs = profile(&tb, traffic);
    assert!(
        runs.iter().all(|(_, apply_ns)| *apply_ns > 0),
        "every iteration updates"
    );
    let worst = runs.iter().map(|(allocs, _)| *allocs).max().expect("runs");
    // 8 staged data vectors; 16 `TableMod`s and 2 master flips, one
    // table-held `Arc` each.
    let accounted = CHURN_MODS as u64 + 2 * CHURN_MODS as u64 + 2;
    assert!(
        worst <= accounted,
        "churn ({driver}): an iteration made {worst} allocations, its reaction and table \
         writes account for {accounted}: {runs:?}"
    );
    assert!(accounted <= 26, "the issue's ceiling");
}
