//! Property tests for the hierarchical timing wheel against a
//! `BinaryHeap` oracle: `pop_due` must yield exactly the `(at, seq)`
//! order the old `BinaryHeap<Reverse<Scheduled>>` event queue produced —
//! same-time events FIFO by schedule order, cascades across levels
//! invisible, far-future (overflow-run) events included. Single pops
//! leave a window partly drained, so events scheduled behind the
//! boundary — before the head of the sorted run, tied with it, or after
//! it — are checked against the oracle too.

use mantis::netsim::TimingWheel;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Debug)]
enum Op {
    /// Schedule an event `delta` ns after the latest popped time (events
    /// may land in the past relative to the wheel's boundary — the old
    /// heap accepted those, so the wheel must too).
    Schedule(u64),
    /// Schedule an event at absolute time `at`.
    ScheduleAt(u64),
    /// Schedule an event `offset` ns from the latest popped instant
    /// (clamped at zero): at that instant, elsewhere in its 64 ns window,
    /// or before it.
    ScheduleNearPop(i64),
    /// Drain everything due by `now + delta`, advancing `now`.
    Drain(u64),
    /// Pop at most one event due by `now + delta`, leaving the rest of
    /// its window pending.
    PopOne(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Mix of horizons: same-slot, level-0 neighbours, the flow
        // engine's real periods (25/100/280 µs), multi-level jumps, and
        // beyond-span overflow.
        prop_oneof![
            0u64..64,
            64u64..16_384,
            prop_oneof![Just(400u64), Just(25_000), Just(100_000), Just(280_000)],
            16_384u64..50_000_000,
            (1u64 << 61)..u64::MAX / 2,
        ]
        .prop_map(Op::Schedule),
        (0u64..4_000_000).prop_map(Op::ScheduleAt),
        prop_oneof![Just(0i64), -64i64..64, -2_000i64..0].prop_map(Op::ScheduleNearPop),
        (0u64..2_000_000).prop_map(Op::Drain),
        prop_oneof![Just(0u64), 0u64..128, 0u64..2_000_000].prop_map(Op::PopOne),
    ]
}

/// Schedule one event at `at` on both queues.
fn push(
    wheel: &mut TimingWheel<u64>,
    oracle: &mut BinaryHeap<Reverse<(u64, u64)>>,
    seq: &mut u64,
    at: u64,
) {
    wheel.schedule(at, *seq, *seq);
    oracle.push(Reverse((at, *seq)));
    *seq += 1;
}

/// Pop the next event due by `until` from both queues and check they
/// agree; returns the popped time, `None` once nothing is due.
fn pop_both(
    wheel: &mut TimingWheel<u64>,
    oracle: &mut BinaryHeap<Reverse<(u64, u64)>>,
    until: u64,
) -> Option<u64> {
    let due = wheel.has_due(until);
    let got = wheel.pop_due(until);
    let want = match oracle.peek() {
        Some(&Reverse((at, _))) if at <= until => oracle.pop().map(|Reverse(pair)| pair),
        _ => None,
    };
    match (got, want) {
        (None, None) => {
            assert!(!due, "has_due said yes, pop_due said no (until {until})");
            None
        }
        (Some((ga, gs, item)), Some((wa, ws))) => {
            assert!(due, "popped ({ga},{gs}) but has_due said no");
            assert_eq!((ga, gs), (wa, ws), "order diverged at until {until}");
            assert_eq!(item, gs, "payload follows its key");
            Some(ga)
        }
        (got, want) => {
            panic!("presence diverged at until {until}: wheel {got:?} oracle {want:?}")
        }
    }
}

/// Apply one op list to both queues and compare every pop.
fn check(ops: &[Op]) {
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut now = 0u64;
    let mut popped = 0u64;
    for op in ops {
        match op {
            Op::Schedule(delta) => push(
                &mut wheel,
                &mut oracle,
                &mut seq,
                now.saturating_add(*delta),
            ),
            Op::ScheduleAt(at) => push(&mut wheel, &mut oracle, &mut seq, *at),
            Op::ScheduleNearPop(offset) => {
                let at = popped.saturating_add_signed(*offset);
                push(&mut wheel, &mut oracle, &mut seq, at);
            }
            Op::Drain(delta) => {
                let until = now.saturating_add(*delta);
                while let Some(at) = pop_both(&mut wheel, &mut oracle, until) {
                    popped = at;
                }
                now = until;
            }
            Op::PopOne(delta) => {
                if let Some(at) = pop_both(&mut wheel, &mut oracle, now.saturating_add(*delta)) {
                    popped = at;
                    now = now.max(at);
                }
            }
        }
    }
    // Leftovers agree in count and full drain order.
    assert_eq!(wheel.len(), oracle.len());
    while let Some(Reverse((wa, ws))) = oracle.pop() {
        let (ga, gs, _) = wheel.pop_due(u64::MAX).expect("wheel drains leftovers");
        assert_eq!((ga, gs), (wa, ws), "final drain diverged");
    }
    assert!(wheel.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wheel_matches_binary_heap_oracle(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        check(&ops);
    }
}

/// The regression that motivated `flush_boundary_slots`: a level-0 flush
/// carries the boundary across a level-1 window edge whose slot was
/// populated earlier. The parked event must still fire before anything
/// scheduled later in that window.
#[test]
fn boundary_crossing_does_not_mask_higher_level_slots() {
    let mut w: TimingWheel<u32> = TimingWheel::new();
    w.schedule(16_394, 0, 0); // level-1 slot (window [16384, 32768))
    w.schedule(16_380, 1, 0); // level-0: flushing it moves boundary to 16384
    assert_eq!(w.pop_due(16_380), Some((16_380, 1, 0)));
    // Boundary now sits inside 16394's window; a fresh near-term event
    // must not be served ahead of the parked one.
    w.schedule(16_484, 2, 0);
    assert_eq!(w.pop_due(u64::MAX), Some((16_394, 0, 0)));
    assert_eq!(w.pop_due(u64::MAX), Some((16_484, 2, 0)));
    assert!(w.is_empty());
}

/// The dos-scenario freeze shape: a short-period chain keeps level 0 busy
/// forever while longer-period events sit one level up. `has_due` must
/// keep seeing them.
#[test]
fn short_period_chain_does_not_starve_long_period_events() {
    let mut w: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    w.schedule(25_000, seq, 25_000);
    seq += 1;
    let mut popped = Vec::new();
    let mut next_short = 0u64;
    for _ in 0..200 {
        w.schedule(next_short, seq, next_short);
        seq += 1;
        while let Some((at, _, item)) = w.pop_due(next_short) {
            assert_eq!(at, item);
            popped.push(at);
        }
        next_short += 400;
    }
    assert!(
        popped.contains(&25_000),
        "25 µs event starved by the 400 ns chain"
    );
    let sorted = {
        let mut s = popped.clone();
        s.sort_unstable();
        s
    };
    assert_eq!(popped, sorted, "pops left time order");
}

/// Same-time events fire in schedule order even when they arrive via
/// different routes (bucket, cascade, overflow migration).
#[test]
fn same_time_ties_break_by_schedule_order() {
    let mut w: TimingWheel<u64> = TimingWheel::new();
    w.schedule(1 << 40, 0, 0); // deep level, cascades down
    w.schedule(1 << 40, 1, 1);
    w.schedule(u64::MAX, 2, 2); // overflow
    w.schedule(u64::MAX, 3, 3);
    w.schedule(5, 4, 4);
    let mut got = Vec::new();
    while let Some((at, seq, _)) = w.pop_due(u64::MAX) {
        got.push((at, seq));
    }
    assert_eq!(
        got,
        vec![
            (5, 4),
            (1 << 40, 0),
            (1 << 40, 1),
            (u64::MAX, 2),
            (u64::MAX, 3)
        ]
    );
}

/// Once a drain to the horizon has pinned the boundary at `u64::MAX`,
/// events still come out in `(at, seq)` order: ones at the horizon, ones
/// behind it, and ones scheduled while it stays pinned — the boundary
/// slots are cascaded once at the pinned boundary and never again.
#[test]
fn scheduling_after_the_boundary_saturates_at_the_horizon() {
    let mut ops = vec![
        Op::ScheduleAt(u64::MAX),
        Op::ScheduleAt(u64::MAX - 70),
        Op::ScheduleAt(1 << 40),
        Op::Drain(u64::MAX),
    ];
    for round in 0..4 {
        ops.extend([
            Op::ScheduleAt(u64::MAX),
            Op::ScheduleAt(u64::MAX - 1 - round),
            Op::ScheduleAt(1 << (20 + round)),
            Op::Schedule(0),
        ]);
        if round % 2 == 1 {
            ops.push(Op::Drain(0));
        }
    }
    check(&ops);
}
