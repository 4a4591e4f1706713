//! Hierarchical bucketed timing wheel: the simulator's event core.
//!
//! A discrete-event simulator at Fig. 14 scale (~8.9 M packets / 20 s)
//! pushes tens of millions of timers; a comparison heap costs `O(log n)`
//! per operation and keeps every pending event in one cache-hostile
//! arena. The classic fix (Varghese & Lauck) is a hierarchy of bucket
//! arrays: scheduling is `O(1)` — index a slot by the event's time bits —
//! and ordering work is only paid when a slot's window is reached, by
//! cascading its events one level down.
//!
//! Layout: [`LEVELS`] levels of [`SLOTS`] slots. Level 0 slots are
//! `2^`[`SHIFT0`] ns wide (64 ns — finer than any pipeline latency, so
//! same-slot events are almost always same-instant); each higher level is
//! `SLOTS`× coarser. Together they cover `2^62` ns (~146 virtual years)
//! past the wheel's `boundary`; anything beyond that sits in a small
//! sorted overflow run that is migrated when the buckets drain.
//!
//! Ordering contract (property-tested against a binary-heap oracle in
//! `tests/timing_wheel_property.rs`): [`TimingWheel::pop_due`] yields
//! events in exactly `(at, seq)` order — the total order a min-heap of
//! `(at, seq)` keys produces, including FIFO tie-break of same-time
//! events via the caller-supplied monotone `seq`.
//!
//! The events due next form the `near` run, a deque sorted by
//! `(at, seq)`. A level-0 slot is flushed only once `near` is empty, so
//! its buffer is sorted once and becomes the run (the run's drained one
//! goes to the slot); an event scheduled behind the boundary is inserted
//! at its position, searched from the back.
//!
//! Invariants:
//! - `boundary` is 64-aligned and monotone non-decreasing; every pending
//!   event with `at < boundary` is in `near`, which is sorted.
//! - an event beyond the bucket span lives in `overflow`, sorted alike,
//!   and is strictly later than every bucketed event (both live in
//!   disjoint `2^62` ns regions), so overflow is only consulted when the
//!   buckets are empty.

use rmt_sim::Nanos;
use std::collections::VecDeque;

/// log2 of slots per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// log2 of the level-0 slot width in nanoseconds.
const SHIFT0: u32 = 6;
/// Number of bucket levels.
const LEVELS: usize = 7;
/// Words of the per-level occupancy bitmap.
const OCC_WORDS: usize = SLOTS / 64;
/// Entries each slot can hold before its buffer ever grows. Slots are
/// visited cyclically and lazily — a coarse level's cursor takes seconds
/// of virtual time to wrap — so without a pre-sized buffer the first push
/// into a cold slot allocates *mid-run*, long after the rest of the
/// engine reached steady state. Pre-sizing every slot bounds that to a
/// fixed construction-time footprint (`LEVELS × SLOTS × 16` entries). A
/// level-1 slot spans 16 µs, which 4 Gb/s of 1 KB frames (the ECMP
/// fabric) fills with about eight events: at eight entries, slot after
/// slot outgrew its buffer for hundreds of virtual milliseconds.
const SLOT_PREALLOC: usize = 16;

/// One pending event.
#[derive(Debug)]
struct Entry<T> {
    at: Nanos,
    seq: u64,
    item: T,
}

/// Insert `e` into the `(at, seq)`-sorted `run` at its position,
/// searching from the back: events are mostly scheduled in time order.
fn insert_sorted<T>(run: &mut VecDeque<Entry<T>>, e: Entry<T>) {
    let mut i = run.len();
    while i > 0 && (run[i - 1].at, run[i - 1].seq) > (e.at, e.seq) {
        i -= 1;
    }
    run.insert(i, e);
}

#[derive(Debug)]
struct Level<T> {
    occ: [u64; OCC_WORDS],
    slots: Vec<Vec<Entry<T>>>,
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            occ: [0; OCC_WORDS],
            slots: (0..SLOTS)
                .map(|_| Vec::with_capacity(SLOT_PREALLOC))
                .collect(),
        }
    }

    /// Earliest occupied slot index at or after `from`, if any.
    fn first_occupied_from(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = self.occ[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= OCC_WORDS {
                return None;
            }
            word = self.occ[w];
        }
    }
}

/// The hierarchical timing wheel. `T` is the event payload; ordering is
/// wholly determined by the caller-supplied `(at, seq)` key.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// 64-aligned lower edge of the bucket span. All pending events below
    /// it have been cascaded into `near`.
    boundary: Nanos,
    /// Events already known to precede the bucket span, sorted by
    /// `(at, seq)`: the front is served next.
    near: VecDeque<Entry<T>>,
    levels: Vec<Level<T>>,
    /// Events beyond the bucket span (≥ 2^62 ns past `boundary`), sorted
    /// by `(at, seq)`.
    overflow: VecDeque<Entry<T>>,
    /// Events currently resident in `levels`.
    bucketed: usize,
    /// The boundary the level ≥ 1 boundary slots were last cascaded at.
    /// `place` never files an event into such a slot, so they only need
    /// cascading again once the boundary has moved. `None` until the first
    /// cascade, so that a boundary pinned at `u64::MAX` is still cascaded
    /// once.
    cascaded: Option<Nanos>,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    pub fn new() -> Self {
        TimingWheel {
            boundary: 0,
            near: VecDeque::with_capacity(SLOT_PREALLOC),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: VecDeque::new(),
            bucketed: 0,
            cascaded: None,
            len: 0,
        }
    }

    /// Take the events of `slot` at `level` out. An empty buffer must come
    /// back via [`TimingWheel::restore_slot`]: a cascaded slot's own, so
    /// that it keeps the capacity it has grown to, or a level-0 slot's the
    /// one `near` drained. Nothing allocates once the buffers the traffic
    /// visits have reached their high-water marks.
    fn flush_slot(&mut self, level: usize, slot: usize) -> Vec<Entry<T>> {
        let l = &mut self.levels[level];
        l.occ[slot / 64] &= !(1u64 << (slot % 64));
        let events = std::mem::take(&mut l.slots[slot]);
        self.bucketed -= events.len();
        events
    }

    /// Draining never files an event into the slot being drained: a
    /// level-0 slot feeds `near`, a cascade places strictly lower.
    fn restore_slot(&mut self, level: usize, slot: usize, drained: Vec<Entry<T>>) {
        debug_assert!(drained.is_empty() && self.levels[level].slots[slot].is_empty());
        self.levels[level].slots[slot] = drained;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupied bucket slots across all levels (telemetry gauge).
    pub fn occupied_slots(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.occ.iter().map(|w| w.count_ones() as usize).sum::<usize>())
            .sum()
    }

    /// Schedule an event. `seq` must be unique and monotone in schedule
    /// order; it is the FIFO tie-break for same-time events.
    pub fn schedule(&mut self, at: Nanos, seq: u64, item: T) {
        self.len += 1;
        self.place(Entry { at, seq, item });
    }

    /// The bucket level an event belongs to relative to `boundary`, or
    /// `None` if it is beyond the span.
    fn level_for(&self, at: Nanos) -> Option<usize> {
        let diff = (at >> SHIFT0) ^ (self.boundary >> SHIFT0);
        if diff == 0 {
            return Some(0);
        }
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        (level < LEVELS).then_some(level)
    }

    fn slot_index(at: Nanos, level: usize) -> usize {
        ((at >> (SHIFT0 + SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// The start time of `slot` at `level`, relative to the current
    /// boundary's high bits.
    fn slot_start(&self, level: usize, slot: usize) -> Nanos {
        let shift = SHIFT0 + SLOT_BITS * level as u32;
        let high = (self.boundary >> (shift + SLOT_BITS)) << (shift + SLOT_BITS);
        high | ((slot as Nanos) << shift)
    }

    fn place(&mut self, e: Entry<T>) {
        if e.at < self.boundary {
            insert_sorted(&mut self.near, e);
            return;
        }
        match self.level_for(e.at) {
            None => insert_sorted(&mut self.overflow, e),
            Some(level) => {
                let slot = Self::slot_index(e.at, level);
                let l = &mut self.levels[level];
                l.occ[slot / 64] |= 1u64 << (slot % 64);
                l.slots[slot].push(e);
                self.bucketed += 1;
            }
        }
    }

    /// Earliest occupied `(level, slot)` pair. At each level, slots before
    /// the boundary's own index are dead (their windows already cascaded),
    /// and the first occupied slot at the lowest occupied level is
    /// guaranteed to precede everything at higher levels.
    fn earliest_slot(&self) -> Option<(usize, usize)> {
        for (level, l) in self.levels.iter().enumerate() {
            let cursor = Self::slot_index(self.boundary, level);
            if let Some(slot) = l.first_occupied_from(cursor) {
                return Some((level, slot));
            }
        }
        None
    }

    /// Cascade any occupied slot that contains the boundary at levels ≥ 1.
    ///
    /// A level-0 flush advances the boundary in 64 ns steps and can carry
    /// it across a higher-level window edge without visiting that window's
    /// slot; events parked there straddle the boundary and may precede
    /// everything at lower levels, so the slot must cascade before either
    /// the `near` head or the per-level scan can be trusted. One pass from
    /// the top level down suffices: cascading level `L` re-places events
    /// strictly after the cursor at every level below `L` (or into `near`),
    /// never into another boundary slot. The same holds for every `place`,
    /// so once a boundary's slots are cascaded they stay empty until the
    /// boundary moves.
    fn flush_boundary_slots(&mut self) {
        if self.cascaded == Some(self.boundary) {
            return;
        }
        self.cascaded = Some(self.boundary);
        for level in (1..LEVELS).rev() {
            let slot = Self::slot_index(self.boundary, level);
            let word = slot / 64;
            let bit = 1u64 << (slot % 64);
            if self.levels[level].occ[word] & bit != 0 {
                let mut events = self.flush_slot(level, slot);
                for e in events.drain(..) {
                    self.place(e);
                }
                self.restore_slot(level, slot, events);
            }
        }
    }

    /// Cascade until the earliest pending event (if due by `until`) sits
    /// at the front of `near`. Returns whether such an event exists.
    fn expose_due(&mut self, until: Nanos) -> bool {
        loop {
            if self.bucketed > 0 {
                self.flush_boundary_slots();
            }
            if let Some(head) = self.near.front() {
                if head.at <= until {
                    return true;
                }
            }
            if self.bucketed == 0 {
                // Buckets empty: the overflow run (strictly later than
                // anything bucketed) may now be within reach.
                match self.overflow.front() {
                    Some(h) if h.at <= until => self.migrate_overflow(),
                    _ => return false,
                }
                continue;
            }
            let (level, slot) = self.earliest_slot().expect("bucketed > 0");
            let start = self.slot_start(level, slot);
            if start > until {
                return false;
            }
            // Flush the slot: a level-0 slot, sorted once, becomes the
            // near run (empty, or its head would have been served first);
            // higher slots cascade their events down.
            let mut events = self.flush_slot(level, slot);
            if level == 0 {
                // Saturating: at the u64 horizon the boundary pins at MAX
                // (horizon events keep cycling through the final slot in
                // order) instead of wrapping back to zero.
                self.boundary = start.saturating_add(1 << SHIFT0);
                debug_assert!(self.near.is_empty());
                events.sort_unstable_by_key(|e| (e.at, e.seq));
                // The sorted buffer becomes the run and the run's drained
                // one the slot's: no event is copied.
                events = Vec::from(std::mem::replace(&mut self.near, events.into()));
            } else {
                self.boundary = start;
                for e in events.drain(..) {
                    self.place(e);
                }
            }
            self.restore_slot(level, slot, events);
        }
    }

    /// Advance the boundary to the overflow head and pull every overflow
    /// event that now fits the bucket span back in.
    fn migrate_overflow(&mut self) {
        let head_at = self.overflow.front().expect("overflow non-empty").at;
        self.boundary = (head_at >> SHIFT0) << SHIFT0;
        while let Some(h) = self.overflow.front() {
            if self.level_for(h.at).is_none() {
                break;
            }
            let e = self.overflow.pop_front().expect("peeked");
            self.place(e);
        }
    }

    /// Whether an event with `at <= until` is pending. May cascade slots
    /// (which only reorganizes storage, never changes the served order).
    pub fn has_due(&mut self, until: Nanos) -> bool {
        self.expose_due(until)
    }

    /// Pop the earliest pending event if it is due by `until`.
    pub fn pop_due(&mut self, until: Nanos) -> Option<(Nanos, u64, T)> {
        if !self.expose_due(until) {
            return None;
        }
        let e = self.near.pop_front().expect("expose_due placed a head");
        self.len -= 1;
        Some((e.at, e.seq, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain everything due by `until` as `(at, seq)` pairs.
    fn drain(w: &mut TimingWheel<u32>, until: Nanos) -> Vec<(Nanos, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = w.pop_due(until) {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn orders_same_slot_and_cross_level() {
        let mut w = TimingWheel::new();
        // Deliberately out of order, spanning level 0, 1+ and same-time ties.
        let times = [5u64, 5, 70_000, 3, 1 << 30, 64, 5, 1 << 20, 0];
        for (seq, at) in times.iter().enumerate() {
            w.schedule(*at, seq as u64, seq as u32);
        }
        let got = drain(&mut w, Nanos::MAX);
        let mut want: Vec<(Nanos, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, at)| (*at, s as u64))
            .collect();
        want.sort();
        assert_eq!(got, want);
        assert!(w.is_empty());
    }

    #[test]
    fn respects_until_and_resumes() {
        let mut w = TimingWheel::new();
        for (seq, at) in [10u64, 100, 1_000, 100_000].iter().enumerate() {
            w.schedule(*at, seq as u64, 0);
        }
        assert_eq!(drain(&mut w, 100), vec![(10, 0), (100, 1)]);
        assert!(!w.has_due(999));
        assert!(w.has_due(1_000));
        assert_eq!(drain(&mut w, Nanos::MAX), vec![(1_000, 2), (100_000, 3)]);
    }

    #[test]
    fn schedule_into_current_slot_after_partial_drain() {
        let mut w = TimingWheel::new();
        w.schedule(100, 0, 0);
        assert_eq!(w.pop_due(Nanos::MAX), Some((100, 0, 0)));
        // Boundary moved past 100's slot; an earlier-but-still-future event
        // must land in `near`, not be lost.
        w.schedule(130, 1, 0);
        w.schedule(90, 2, 0);
        assert_eq!(drain(&mut w, Nanos::MAX), vec![(90, 2), (130, 1)]);
    }

    #[test]
    fn far_future_overflow_events_fire_in_order() {
        let mut w = TimingWheel::new();
        w.schedule(Nanos::MAX, 0, 0);
        w.schedule(1 << 63, 1, 0);
        w.schedule(5, 2, 0);
        w.schedule(Nanos::MAX, 3, 0);
        assert_eq!(
            drain(&mut w, Nanos::MAX),
            vec![(5, 2), (1 << 63, 1), (Nanos::MAX, 0), (Nanos::MAX, 3)]
        );
    }

    #[test]
    fn occupancy_gauge_tracks_slots() {
        let mut w = TimingWheel::new();
        assert_eq!(w.occupied_slots(), 0);
        w.schedule(0, 0, 0);
        w.schedule(1, 1, 0); // same level-0 slot
        w.schedule(1 << 20, 2, 0);
        assert_eq!(w.occupied_slots(), 2);
        assert_eq!(w.len(), 3);
    }
}
